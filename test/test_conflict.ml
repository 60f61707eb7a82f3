let check_bool = Alcotest.(check bool)

let t o n = Term.make ~ontology:o n

let codes conflicts = List.map (fun c -> c.Conflict.code) conflicts

let two_sources () =
  let a =
    Ontology.create "a"
    |> fun o -> Ontology.add_subclass o ~sub:"Car" ~super:"Vehicle"
    |> fun o -> Ontology.add_term o "Bike"
  in
  let b =
    Ontology.create "b"
    |> fun o -> Ontology.add_subclass o ~sub:"Sedan" ~super:"Auto"
    |> fun o -> Ontology.add_term o "Boat"
  in
  (a, b)

let test_clean_rules () =
  let a, b = two_sources () in
  let rules = [ Rule.implies (t "a" "Car") (t "b" "Auto") ] in
  Alcotest.(check (list string)) "no conflicts" []
    (codes (Conflict.check ~ontologies:[ a; b ] rules))

let test_disjoint_implication () =
  let a, b = two_sources () in
  let rules =
    [
      Rule.implies ~name:"i" (t "a" "Car") (t "b" "Boat");
      Rule.disjoint ~name:"d" (t "a" "Car") (t "b" "Boat");
    ]
  in
  let cs = Conflict.check ~ontologies:[ a; b ] rules in
  check_bool "flagged" true (List.mem "disjoint-implication" (codes cs));
  check_bool "fatal" true (Conflict.fatal cs <> [])

let test_disjoint_implication_transitive () =
  let a, b = two_sources () in
  let rules =
    [
      Rule.implies ~name:"i1" (t "a" "Car") (t "b" "Auto");
      Rule.implies ~name:"i2" (t "b" "Auto") (t "b" "Boat");
      Rule.disjoint ~name:"d" (t "a" "Car") (t "b" "Boat");
    ]
  in
  check_bool "path through middle" true
    (List.mem "disjoint-implication"
       (codes (Conflict.check ~ontologies:[ a; b ] rules)))

let test_disjoint_overlap () =
  let a, b = two_sources () in
  (* Sedan flows into both Auto and Boat which are disjoint. *)
  let rules =
    [
      Rule.implies ~name:"i1" (t "b" "Sedan") (t "b" "Boat");
      Rule.disjoint ~name:"d" (t "b" "Auto") (t "b" "Boat");
    ]
  in
  (* Sedan -S-> Auto comes from the source ontology itself. *)
  check_bool "overlap" true
    (List.mem "disjoint-overlap" (codes (Conflict.check ~ontologies:[ a; b ] rules)))

let test_self_implication () =
  let a, b = two_sources () in
  let rules = [ Rule.implies ~name:"s" (t "a" "Car") (t "a" "Car") ] in
  check_bool "self" true
    (List.mem "self-implication" (codes (Conflict.check ~ontologies:[ a; b ] rules)))

let test_functional_clash () =
  let a, b = two_sources () in
  let rules =
    [
      Rule.functional ~name:"f1" ~fn:"AFn" ~src:(t "a" "Car") ~dst:(t "b" "Auto") ();
      Rule.functional ~name:"f2" ~fn:"BFn" ~src:(t "a" "Car") ~dst:(t "b" "Auto") ();
    ]
  in
  check_bool "clash" true
    (List.mem "functional-clash" (codes (Conflict.check ~ontologies:[ a; b ] rules)))

let test_duplicate_rule () =
  let a, b = two_sources () in
  let rules =
    [
      Rule.implies ~name:"r1" (t "a" "Car") (t "b" "Auto");
      Rule.implies ~name:"r2" (t "a" "Car") (t "b" "Auto");
    ]
  in
  check_bool "dup" true
    (List.mem "duplicate-rule" (codes (Conflict.check ~ontologies:[ a; b ] rules)))

let test_unknown_converter_and_drift () =
  let a, b = two_sources () in
  let rules =
    [ Rule.functional ~name:"f" ~fn:"MissingFn" ~src:(t "a" "Car") ~dst:(t "b" "Auto") () ]
  in
  let cs = Conflict.check ~conversions:Conversion.builtin ~ontologies:[ a; b ] rules in
  check_bool "unknown" true (List.mem "unknown-converter" (codes cs));
  (* A bad inverse pair drifts. *)
  let registry =
    Conversion.register_linear Conversion.empty ~name:"BadFn" ~inverse:"BadInvFn" ~factor:2.0 ()
    |> fun r -> Conversion.register_linear r ~name:"BadInvFn" ~factor:0.3 ()
  in
  let rules2 =
    [ Rule.functional ~name:"f2" ~fn:"BadFn" ~src:(t "a" "Car") ~dst:(t "b" "Auto") () ]
  in
  check_bool "drift" true
    (List.mem "roundtrip-drift"
       (codes (Conflict.check ~conversions:registry ~ontologies:[ a; b ] rules2)))

let test_unknown_term () =
  let a, b = two_sources () in
  let rules = [ Rule.implies ~name:"u" (t "a" "Spaceship") (t "b" "Auto") ] in
  let cs = Conflict.check ~ontologies:[ a; b ] rules in
  check_bool "unknown term" true (List.mem "unknown-term" (codes cs));
  (* Articulation terms are exempt: their ontology is not in the list. *)
  let rules2 = [ Rule.implies ~name:"ok" (t "art" "Anything") (t "b" "Auto") ] in
  check_bool "articulation exempt" false
    (List.mem "unknown-term" (codes (Conflict.check ~ontologies:[ a; b ] rules2)))

let test_fatal_sorted_first () =
  let a, b = two_sources () in
  let rules =
    [
      Rule.implies ~name:"r1" (t "a" "Ghost") (t "b" "Auto");
      Rule.implies ~name:"s" (t "a" "Car") (t "a" "Car");
    ]
  in
  match Conflict.check ~ontologies:[ a; b ] rules with
  | first :: _ -> Alcotest.(check string) "fatal first" "self-implication" first.Conflict.code
  | [] -> Alcotest.fail "expected conflicts"

(* disjoint-overlap against its definition: every node of the
   implication graph, other than the two sides, with a path to each
   side, reported per Disjoint rule in node order. *)
let naive_overlaps ~ontologies rules =
  let impl =
    List.fold_left
      (fun g o ->
        Digraph.fold_edges
          (fun (e : Digraph.edge) g ->
            if
              String.equal e.label Rel.subclass_of
              || String.equal e.label Rel.semantic_implication
            then Digraph.add_edge g e.src "implies" e.dst
            else g)
          (Ontology.qualify o) g)
      Digraph.empty ontologies
  in
  let impl =
    List.fold_left
      (fun g (r : Rule.t) ->
        match r.Rule.body with
        | Rule.Implication (Rule.Term l, Rule.Term r) ->
            Digraph.add_edge g (Term.qualified l) "implies" (Term.qualified r)
        | _ -> g)
      impl rules
  in
  List.concat_map
    (fun (r : Rule.t) ->
      match r.Rule.body with
      | Rule.Disjoint (a, b) ->
          let qa = Term.qualified a and qb = Term.qualified b in
          List.filter
            (fun n ->
              n <> qa && n <> qb
              && Traversal.path_exists impl n qa
              && Traversal.path_exists impl n qb)
            (Digraph.nodes impl)
          |> List.map (fun n -> (n, r.Rule.name))
      | _ -> [])
    rules

let prop_overlap_matches_definition =
  let nodes = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  let gen =
    let open QCheck.Gen in
    let term = map2 t (oneofl [ "a"; "b" ]) (oneofl nodes) in
    let edge =
      map3
        (fun s l d -> { Digraph.src = s; label = l; dst = d })
        (oneofl nodes)
        (oneofl [ Rel.subclass_of; Rel.semantic_implication; "x" ])
        (oneofl nodes)
    in
    let onto name =
      map
        (fun es -> Ontology.with_graph (Ontology.create name) (Digraph.of_edges es))
        (list_size (int_range 0 10) edge)
    in
    let rule =
      oneof
        [
          map2 (fun a b -> Rule.implies a b) term term;
          map2 (fun a b -> Rule.disjoint a b) term term;
        ]
    in
    triple (onto "a") (onto "b") (list_size (int_range 1 6) rule)
  in
  QCheck.Test.make ~count:300 ~name:"disjoint-overlap = its definition"
    (QCheck.make
       ~print:(fun (_, _, rules) -> String.concat "; " (List.map Rule.to_string rules))
       gen)
    (fun (a, b, rules) ->
      let ontologies = [ a; b ] in
      let found =
        Conflict.check ~ontologies rules
        |> List.filter (fun c -> c.Conflict.code = "disjoint-overlap")
        |> List.map (fun c -> (c.Conflict.subject, c.Conflict.rules_involved))
      in
      let expected =
        naive_overlaps ~ontologies rules
        |> List.map (fun (n, rule) -> (n, [ rule ]))
        |> List.stable_sort (fun (x, _) (y, _) -> String.compare x y)
      in
      found = expected)

let suite =
  [
    ( "conflict",
      [
        Alcotest.test_case "clean" `Quick test_clean_rules;
        Alcotest.test_case "disjoint implication" `Quick test_disjoint_implication;
        Alcotest.test_case "disjoint transitive" `Quick test_disjoint_implication_transitive;
        Alcotest.test_case "disjoint overlap" `Quick test_disjoint_overlap;
        Alcotest.test_case "self implication" `Quick test_self_implication;
        Alcotest.test_case "functional clash" `Quick test_functional_clash;
        Alcotest.test_case "duplicate" `Quick test_duplicate_rule;
        Alcotest.test_case "converter checks" `Quick test_unknown_converter_and_drift;
        Alcotest.test_case "unknown term" `Quick test_unknown_term;
        Alcotest.test_case "fatal first" `Quick test_fatal_sorted_first;
        QCheck_alcotest.to_alcotest prop_overlap_matches_definition;
      ] );
  ]
