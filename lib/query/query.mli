(** Queries over a unified ontology (section 2.3).

    "A traditional query engine ... takes a query phrased in terms of an
    articulation ontology and derives an execution plan against the
    sources involved."  The concrete language is a small conjunctive
    select-from-where over one concept, with aggregates, ordering and
    limits:

    {v
    SELECT Price, Owner FROM transport:Vehicle WHERE Price < 5000
    SELECT * FROM transport:CarsTrucks ORDER BY Price DESC LIMIT 3
    SELECT COUNT( * ), AVG(Price) FROM Vehicle WHERE Price < 5000
    v}

    Keywords are case-insensitive; attribute names and terms are
    case-sensitive.  Values: numbers, single-quoted strings, [true] /
    [false].  A query selects either plain attributes or aggregates, not
    both (there is no GROUP BY).

    A word next to the [:] of a qualified term is always a name, so
    [FROM a0:Order] names a concept called [Order].  Bare (unqualified)
    concepts and attributes named like a keyword ([Order], [By],
    [Limit], [Asc], [Desc], [Select], [From], [Where], [And], [True],
    [False], in any case) remain reserved and do not parse. *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type predicate = {
  attr : string;  (** Attribute name, in articulation vocabulary. *)
  op : comparison;
  value : Conversion.value;
}

type aggregate =
  | Count  (** ["COUNT(*)"] — matching instances. *)
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string
      (** Numeric aggregates over an articulation attribute; instances
          lacking the attribute are skipped. *)

type direction = Asc | Desc

type t = {
  concept : Term.t;
      (** Usually an articulation-ontology term; a source-qualified term
          targets that single source. *)
  select : string list;  (** Empty means [*] (all attributes present). *)
  aggregates : aggregate list;
      (** Non-empty makes this an aggregate query; [select] is then
          empty. *)
  where : predicate list;  (** Conjunctive. *)
  order_by : (string * direction) option;
  limit : int option;
}

val v :
  ?select:string list ->
  ?aggregates:aggregate list ->
  ?where:predicate list ->
  ?order_by:string * direction ->
  ?limit:int ->
  Term.t ->
  t
(** @raise Invalid_argument when both [select] and [aggregates] are
    non-empty, or [limit] is negative. *)

val compare_values : Conversion.value -> Conversion.value -> int option
(** Total order within one value kind; [None] across kinds. *)

val holds : predicate -> Conversion.value -> bool
(** Numeric comparisons on [Num]; [Eq]/[Neq] on anything; ordering on
    strings is lexicographic; [false] on type mismatches. *)

val aggregate_attr : aggregate -> string option
(** The attribute an aggregate reads; [None] for [Count]. *)

val aggregate_label : aggregate -> string
(** ["COUNT(*)"], ["AVG(Price)"], ... *)

val parse : ?default_ontology:string -> string -> (t, string) result
(** Parse the textual form.  [default_ontology] qualifies a bare concept
    name (default ["transport"]). *)

val parse_exn : ?default_ontology:string -> string -> t

val to_string : t -> string
(** Round-trips through {!parse}. *)

val pp : Format.formatter -> t -> unit
