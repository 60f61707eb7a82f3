(** Whole-workspace static analysis (the [onion lint] engine).

    The point checkers ({!Consistency} on one ontology, {!Conflict} on
    one rule set) see one part at a time; this driver sees the network —
    every source, every stored articulation, the conversion registry —
    and runs the passes only that view makes possible: dead rules whose
    pattern signature cannot match any loaded source, bridges whose
    endpoints vanished, rules derivable from the remaining network,
    Horn-rule derivation cycles, conversion round-trips.  The point
    checkers are adapted into the same {!Diagnostic.t} stream, with
    source provenance recovered from the original file texts.

    Per-part passes fan out on {!Domain_pool} and memoize per
    {!Revision} stamp in {!Lru} caches (honouring
    [Cache_stats.enabled]), so re-linting an unchanged part is a table
    lookup — the workspace layer adds a fingerprint-keyed memo over the
    whole report on top. *)

type source = {
  ontology : Ontology.t;
  file : string option;  (** Workspace-relative, for provenance. *)
  text : string option;  (** Raw file text, for span recovery. *)
}

type articulation = {
  articulation : Articulation.t;
  art_file : string option;
  art_text : string option;
}

type view = {
  sources : source list;
  articulations : articulation list;
  conversions : Conversion.t option;
      (** Registry for the conversion pass; [None] skips it. *)
}

val source : ?file:string -> ?text:string -> Ontology.t -> source

val articulation : ?file:string -> ?text:string -> Articulation.t -> articulation

val view :
  ?conversions:Conversion.t ->
  ?articulations:articulation list ->
  source list ->
  view

type timing = { pass : string; ns : int }

type report = {
  diagnostics : Diagnostic.t list;  (** In {!Diagnostic.order}. *)
  timings : timing list;  (** One entry per pass, in run order. *)
}

val run : ?enabled:string list -> view -> report
(** The raw report: every pass — apply {!Diagnostic.apply_config} and a
    {!Lint_baseline} to the result.  Consistency runs in strict mode;
    the [undeclared-relationship] findings it yields are dropped by the
    default config downstream.

    [enabled] restricts the computation to the listed diagnostic codes
    (default: every code, including default-disabled ones).  Disabled
    codes are skipped at {e compute} time where a pass allows it (the
    dead-rule feasibility scan, the whole bridges pass), not merely
    post-filtered, and the enabled-code fingerprint is part of every
    pass memo key — a warm cache primed under one configuration never
    answers a run under another. *)

val lint_incremental :
  ?enabled:string list ->
  previous:view ->
  delta:Delta.t ->
  changed:string list ->
  view ->
  report
(** Delta-driven re-lint.  [view] must be [previous] with the edited
    sources' ontologies replaced in place (unchanged parts must be
    {e physically} the previous values, so their revision-keyed memo
    entries still apply); [changed] names the edited source ontologies
    and [delta] summarizes the edits from [previous] ({!Delta.union} of
    the per-source deltas when several changed).

    The impact analysis maps the changed region to the (pass x scope)
    cells that can possibly produce different diagnostics: affected
    cells get a fresh scope stamp (forced recompute), provably
    unaffected cells retain their stamp with refreshed source revisions
    and answer from the existing memo entries.  An articulation's
    conflict and rules cells see a taxonomy edit only in a source its
    rules name.  An edited source's consistency re-derives only the
    checks the delta can reach from its issues in [previous]
    ({!Consistency.recheck}), when those are still memoized.  The result is
    bit-for-bit identical to [run ?enabled view] (the qcheck harness
    asserts it over random edit scripts); only the work differs.
    Records the [delta.ops] / [delta.passes_rerun] /
    [delta.passes_skipped] plan counters in {!Cache_stats}. *)

val pass_names : string list
(** The passes {!run} executes, in order. *)

val config_fingerprint : string list option -> string
(** Canonical fingerprint of an [enabled] restriction (["*"] for the
    unrestricted default) — the component callers fold into their own
    memo keys when caching whole reports. *)

val report_json :
  ?suppressed:int -> diagnostics:Diagnostic.t list -> timings:timing list -> unit -> string
(** The stable SARIF-shaped document: [version], one run with the tool's
    rule catalog and one result object per diagnostic, a [summary]
    (error/warning/suppressed counts and the {!Diagnostic.exit_code}),
    and per-pass [timings]. *)
