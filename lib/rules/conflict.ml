type severity = Fatal | Suspicious

type conflict = {
  severity : severity;
  code : string;
  subject : string;
  detail : string;
  rules_involved : string list;
}

let pp_conflict ppf c =
  Format.fprintf ppf "[%s] %s: %s — %s"
    (match c.severity with Fatal -> "fatal" | Suspicious -> "suspicious")
    c.code c.subject c.detail;
  if c.rules_involved <> [] then
    Format.fprintf ppf " (rules: %s)" (String.concat ", " c.rules_involved)

let conflict severity code subject detail rules_involved =
  {
    severity;
    code;
    subject;
    detail;
    rules_involved = List.sort_uniq String.compare rules_involved;
  }

(* The implication graph: qualified terms as nodes, edges from atomic
   Term => Term rules and from each ontology's SubclassOf / SI edges. *)
let implication_graph ~ontologies rules =
  let g =
    List.fold_left
      (fun g o ->
        let qualified = Ontology.qualify o in
        Digraph.fold_edges
          (fun (e : Digraph.edge) g ->
            if
              String.equal e.label Rel.subclass_of
              || String.equal e.label Rel.semantic_implication
            then Digraph.add_edge g e.src "implies" e.dst
            else g)
          qualified g)
      Digraph.empty ontologies
  in
  List.fold_left
    (fun g (r : Rule.t) ->
      match r.Rule.body with
      | Rule.Implication (Rule.Term lhs, Rule.Term rhs) ->
          Digraph.add_edge g (Term.qualified lhs) "implies" (Term.qualified rhs)
      | Rule.Implication _ | Rule.Functional _ | Rule.Disjoint _ -> g)
    g rules

let rules_mentioning rules term =
  List.filter_map
    (fun (r : Rule.t) ->
      if List.exists (Term.equal term) (Rule.terms r) then Some r.Rule.name
      else None)
    rules

(* Intersection of two sorted node lists, in order. *)
let rec sorted_inter xs ys =
  match (xs, ys) with
  | x :: xs', y :: ys' ->
      let c = String.compare x y in
      if c = 0 then x :: sorted_inter xs' ys'
      else if c < 0 then sorted_inter xs' ys
      else sorted_inter xs ys'
  | [], _ | _, [] -> []

let check ?conversions ~ontologies rules =
  let conflicts = ref [] in
  let add c = conflicts := c :: !conflicts in
  let impl = implication_graph ~ontologies rules in

  (* Disjointness violations. *)
  let disjoint_pairs =
    List.filter_map
      (fun (r : Rule.t) ->
        match r.Rule.body with
        | Rule.Disjoint (a, b) -> Some (r.Rule.name, a, b)
        | Rule.Implication _ | Rule.Functional _ -> None)
      rules
  in
  List.iter
    (fun (rule_name, a, b) ->
      let qa = Term.qualified a and qb = Term.qualified b in
      if Traversal.path_exists impl qa qb || Traversal.path_exists impl qb qa then
        add
          (conflict Fatal "disjoint-implication"
             (qa ^ " / " ^ qb)
             "an implication path connects terms declared disjoint"
             (rule_name :: (rules_mentioning rules a @ rules_mentioning rules b)));
      (* Common implier: some term flows into both sides, i.e. lies in
         both sides' co-reachable sets — one reverse walk per side, not
         two forward walks per node. *)
      List.iter
        (fun n ->
          if (not (String.equal n qa)) && not (String.equal n qb) then
            add
              (conflict Fatal "disjoint-overlap" n
                 (Printf.sprintf
                    "term implies both %s and %s, which are declared disjoint" qa qb)
                 [ rule_name ]))
        (sorted_inter (Traversal.co_reachable impl qa) (Traversal.co_reachable impl qb)))
    disjoint_pairs;

  (* Self-implication. *)
  List.iter
    (fun (r : Rule.t) ->
      match r.Rule.body with
      | Rule.Implication (Rule.Term lhs, Rule.Term rhs) when Term.equal lhs rhs ->
          add
            (conflict Fatal "self-implication" (Term.qualified lhs)
               "rule implies a term by itself" [ r.Rule.name ])
      | Rule.Implication _ | Rule.Functional _ | Rule.Disjoint _ -> ())
    rules;

  (* Functional clashes: same (src, dst), different function. *)
  let functionals =
    List.filter_map
      (fun (r : Rule.t) ->
        match r.Rule.body with
        | Rule.Functional { fn; src; dst } -> Some (r.Rule.name, fn, src, dst)
        | Rule.Implication _ | Rule.Disjoint _ -> None)
      rules
  in
  let rec clash = function
    | [] -> ()
    | (n1, f1, s1, d1) :: rest ->
        List.iter
          (fun (n2, f2, s2, d2) ->
            if Term.equal s1 s2 && Term.equal d1 d2 && not (String.equal f1 f2) then
              add
                (conflict Fatal "functional-clash"
                   (Term.qualified s1 ^ " => " ^ Term.qualified d1)
                   (Printf.sprintf "converted by both %s and %s" f1 f2)
                   [ n1; n2 ]))
          rest;
        clash rest
  in
  clash functionals;

  (* Duplicate rules. *)
  let rec dups = function
    | [] -> ()
    | (r1 : Rule.t) :: rest ->
        List.iter
          (fun (r2 : Rule.t) ->
            if Rule.equal_body r1.Rule.body r2.Rule.body then
              add
                (conflict Suspicious "duplicate-rule" (Rule.to_string r1)
                   "two rules have the same body" [ r1.Rule.name; r2.Rule.name ]))
          rest;
        dups rest
  in
  dups rules;

  (* Conversion-registry checks. *)
  (match conversions with
  | None -> ()
  | Some registry ->
      List.iter
        (fun (rule_name, fn, src, dst) ->
          if not (Conversion.mem registry fn) then
            add
              (conflict Suspicious "unknown-converter"
                 (Term.qualified src ^ " => " ^ Term.qualified dst)
                 (Printf.sprintf "function %s is not registered" fn)
                 [ rule_name ])
          else
            match Conversion.roundtrip_error registry fn (Conversion.Num 100.0) with
            | Some err when err > 1e-6 ->
                add
                  (conflict Suspicious "roundtrip-drift" fn
                     (Printf.sprintf
                        "declared inverse drifts by %.2e on a probe value" err)
                     [ rule_name ])
            | Some _ | None -> ())
        functionals);

  (* Unknown terms: rules naming terms absent from a supplied source
     ontology.  Terms attributed to ontologies we were not given (e.g. the
     articulation ontology being built) are exempt. *)
  let find_ontology onto_name =
    List.find_opt (fun o -> String.equal (Ontology.name o) onto_name) ontologies
  in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun (t : Term.t) ->
          match find_ontology t.Term.ontology with
          | Some o when not (Ontology.has_term o t.Term.name) ->
              add
                (conflict Suspicious "unknown-term" (Term.qualified t)
                   (Printf.sprintf "ontology %s has no such term" t.Term.ontology)
                   [ r.Rule.name ])
          | Some _ | None -> ())
        (Rule.terms r))
    rules;

  let rank = function Fatal -> 0 | Suspicious -> 1 in
  List.stable_sort
    (fun a b ->
      match Stdlib.compare (rank a.severity) (rank b.severity) with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> String.compare a.subject b.subject
          | c -> c)
      | c -> c)
    (List.rev !conflicts)

let fatal conflicts = List.filter (fun c -> c.severity = Fatal) conflicts
let suspicious conflicts = List.filter (fun c -> c.severity = Suspicious) conflicts
