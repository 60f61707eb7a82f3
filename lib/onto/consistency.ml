type severity = Error | Warning

type issue = {
  severity : severity;
  code : string;
  subject : string;
  message : string;
}

let pp_issue ppf i =
  Format.fprintf ppf "[%s] %s: %s (%s)"
    (match i.severity with Error -> "error" | Warning -> "warning")
    i.code i.message i.subject

let issue severity code subject message = { severity; code; subject; message }

let cycle_issues g ~label ~severity ~code ~message =
  let follow = Traversal.only [ label ] in
  let sccs = Traversal.strongly_connected_components ~follow g in
  let multi = List.filter (fun c -> List.length c > 1) sccs in
  let selfloops =
    List.filter (fun n -> Digraph.mem_edge g n label n) (Digraph.nodes g)
  in
  List.map
    (fun c -> issue severity code (String.concat ", " c) message)
    multi
  @ List.map (fun n -> issue severity code n (message ^ " (self-loop)")) selfloops

(* The checks [check] runs, one function each, so that [recheck] can
   re-derive only the ones an edit can reach.  Every code belongs to
   exactly one check. *)
let cycle_checks =
  [
    ( Rel.subclass_of,
      Error,
      "subclass-cycle",
      "SubclassOf cycle: a class cannot be a proper subclass of itself" );
    (* SI cycles state equivalence; flag for the expert. *)
    ( Rel.semantic_implication,
      Warning,
      "si-cycle",
      "semantic-implication cycle: terms are mutually implied (equivalent)" );
    (Rel.attribute_of, Warning, "attribute-cycle", "AttributeOf cycle");
  ]

let cycles g (label, severity, code, message) =
  cycle_issues g ~label ~severity ~code ~message

(* Category confusion of one term: it reads only the term's own
   InstanceOf / SubclassOf edges. *)
let category_codes = [ "instance-of-instance"; "class-and-instance" ]

let category g n =
  let is_instance = Digraph.succ_by g n Rel.instance_of <> [] in
  let has_instances = Digraph.pred_by g n Rel.instance_of <> [] in
  let is_class =
    Digraph.succ_by g n Rel.subclass_of <> []
    || Digraph.pred_by g n Rel.subclass_of <> []
    || has_instances
  in
  (if is_instance && has_instances then
     [
       issue Error "instance-of-instance" n
         "term is an instance and simultaneously has instances";
     ]
   else [])
  @
  if is_instance && is_class && not has_instances then
    [
      issue Warning "class-and-instance" n
        "term participates in the taxonomy and is also an instance";
    ]
  else []

(* Declaration sanity. *)
let declarations registry =
  let declared_names = List.map fst (Rel.declared registry) in
  List.concat_map
    (fun (rel_name, props) ->
      List.filter_map
        (fun (p : Rel.property) ->
          match p with
          | Rel.Inverse_of other | Rel.Implies other ->
              if not (List.mem other declared_names) then
                Some
                  (issue Error "inverse-unknown" rel_name
                     (Format.asprintf
                        "property %a names undeclared relationship %s"
                        Rel.pp_property p other))
              else None
          | Rel.Transitive | Rel.Symmetric | Rel.Reflexive -> None)
        props)
    (Rel.declared registry)

(* Undeclared edge labels (strict mode), for the given labels in use. *)
let undeclared registry labels =
  let declared_names = List.map fst (Rel.declared registry) in
  List.filter_map
    (fun label ->
      if (not (List.mem label declared_names)) && not (Rel.is_conversion_label label)
      then
        Some
          (issue Warning "undeclared-relationship" label
             "edge label has no relationship declaration")
      else None)
    labels

let sort issues =
  let severity_rank = function Error -> 0 | Warning -> 1 in
  List.stable_sort
    (fun a b ->
      match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> String.compare a.subject b.subject
          | c -> c)
      | c -> c)
    issues

let check ?(strict = false) o =
  let g = Ontology.graph o in
  let registry = Ontology.relations o in
  sort
    (List.concat_map (cycles g) cycle_checks
    @ List.concat_map (category g) (Digraph.nodes g)
    @ declarations registry
    @ if strict then undeclared registry (Digraph.edge_labels g) else [])

(* Only ties (same severity, code and subject) keep their input order
   through [sort], and ties occur only within one code.  Every code is
   either carried over whole, re-derived whole (cycles, undeclared
   labels) or carried and re-derived per subject (category codes, at
   most one issue per term), so the result equals [check]. *)
let recheck ?(strict = false) ~before ~previous ~delta o =
  let g = Ontology.graph o in
  let registry = Ontology.relations o in
  if registry != Ontology.relations before then check ~strict o
  else
    let labels = Delta.edge_labels delta in
    let rerun =
      List.filter (fun (label, _, _, _) -> Delta.touches_label delta label) cycle_checks
    in
    let rerun_codes = List.map (fun (_, _, code, _) -> code) rerun in
    let keep i =
      if List.mem i.code rerun_codes then false
      else if List.mem i.code category_codes then
        not (Delta.touches_node delta i.subject)
      else if String.equal i.code "undeclared-relationship" then
        not (Delta.touches_label delta i.subject)
      else true
    in
    sort
      (List.filter keep previous
      @ List.concat_map (cycles g) rerun
      @ List.concat_map
          (fun n -> if Digraph.mem_node g n then category g n else [])
          (Delta.touched_nodes delta)
      @
      if strict then
        undeclared registry (List.filter (Digraph.has_edge_label g) labels)
      else [])

let errors issues = List.filter (fun i -> i.severity = Error) issues
let warnings issues = List.filter (fun i -> i.severity = Warning) issues
let is_consistent o = errors (check o) = []
