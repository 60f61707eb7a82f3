(** Consistency checking of ontologies.

    The paper restricts attention to {e consistent} ontologies: "a term in
    an ontology does not refer to different concepts within one knowledge
    base" (section 1), which the graph representation enforces by
    construction (one node per term).  The remaining, checkable obligations
    are structural: taxonomy acyclicity, sane relationship declarations,
    and no category confusion between classes and instances.  The
    articulation engine runs these checks on generated articulations so the
    expert is warned about "inconsistencies in the suggested articulation"
    (section 2.4). *)

type severity = Error | Warning

type issue = {
  severity : severity;
  code : string;  (** Stable identifier, e.g. ["subclass-cycle"]. *)
  subject : string;  (** Term or relationship the issue is about. *)
  message : string;
}

val pp_issue : Format.formatter -> issue -> unit

val check : ?strict:bool -> Ontology.t -> issue list
(** All issues, errors first.  With [strict] (default [false]) undeclared
    relationship labels are also reported as warnings.

    Errors: [subclass-cycle] ([SubclassOf] cycles contradict the subset
    semantics), [instance-of-instance] (an instance used as a concept),
    [inverse-unknown] (an [Inverse_of] / [Implies] declaration naming an
    undeclared relationship).

    Warnings: [si-cycle] (SI cycles merely state equivalence but deserve
    expert attention), [class-and-instance] (a term used as both),
    [attribute-cycle], [undeclared-relationship] (strict only). *)

val recheck :
  ?strict:bool ->
  before:Ontology.t ->
  previous:issue list ->
  delta:Delta.t ->
  Ontology.t ->
  issue list
(** [recheck ~before ~previous ~delta o] is [check o], re-deriving only
    what [delta] can change, when [previous] is [check before] (same
    [strict]) and [delta] covers every change from [before]'s graph to
    [o]'s (a {!Delta.union} of such deltas qualifies):
    - a cycle check re-runs only when its label is in
      {!Delta.edge_labels};
    - category confusion is re-derived only for touched terms;
    - [undeclared-relationship] only for the delta's labels.

    Every other issue is carried over from [previous].  When the
    relation registries are not physically the same value, it runs
    {!check} whole. *)

val is_consistent : Ontology.t -> bool
(** No [Error]-severity issues. *)

val errors : issue list -> issue list

val warnings : issue list -> issue list
