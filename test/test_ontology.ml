open Helpers

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Vehicle taxonomy with a diamond and inherited attributes. *)
let fixture () =
  Ontology.create "veh"
  |> fun o -> Ontology.add_subclass o ~sub:"Vehicle" ~super:"Thing"
  |> fun o -> Ontology.add_subclass o ~sub:"Car" ~super:"Vehicle"
  |> fun o -> Ontology.add_subclass o ~sub:"Truck" ~super:"Vehicle"
  |> fun o -> Ontology.add_subclass o ~sub:"SUV" ~super:"Car"
  |> fun o -> Ontology.add_subclass o ~sub:"SUV" ~super:"Truck"
  |> fun o -> Ontology.add_attribute o ~concept:"Vehicle" ~attr:"Price"
  |> fun o -> Ontology.add_attribute o ~concept:"Car" ~attr:"Doors"
  |> fun o -> Ontology.add_instance o ~instance:"k5" ~concept:"SUV"
  |> fun o -> Ontology.add_instance o ~instance:"polo" ~concept:"Car"

let test_create_validation () =
  Alcotest.check_raises "empty name" (Invalid_argument "Ontology.create: empty name")
    (fun () -> ignore (Ontology.create ""));
  Alcotest.check_raises "colon in name"
    (Invalid_argument "Ontology.create: ontology names must not contain ':'")
    (fun () -> ignore (Ontology.create "a:b"))

let test_counts () =
  let o = fixture () in
  check_int "terms" 9 (Ontology.nb_terms o);
  check_int "rels" 9 (Ontology.nb_relationships o)

let test_sub_super () =
  let o = fixture () in
  check_sorted_strings "direct subs of Vehicle" [ "Car"; "Truck" ]
    (Ontology.subclasses o "Vehicle");
  check_sorted_strings "direct supers of SUV" [ "Car"; "Truck" ]
    (Ontology.superclasses o "SUV");
  check_sorted_strings "all supers of SUV" [ "Car"; "Thing"; "Truck"; "Vehicle" ]
    (Ontology.all_superclasses o "SUV");
  check_sorted_strings "all subs of Vehicle" [ "Car"; "SUV"; "Truck" ]
    (Ontology.all_subclasses o "Vehicle");
  check_bool "is_subclass transitive" true
    (Ontology.is_subclass o ~sub:"SUV" ~super:"Thing");
  check_bool "not reflexive" false (Ontology.is_subclass o ~sub:"Car" ~super:"Car");
  check_bool "not reversed" false (Ontology.is_subclass o ~sub:"Vehicle" ~super:"Car")

let test_nontransitive_when_undeclared () =
  let relations = Rel.declare Rel.empty_registry Rel.subclass_of [] in
  let o =
    Ontology.create ~relations "flat"
    |> fun o -> Ontology.add_subclass o ~sub:"a" ~super:"b"
    |> fun o -> Ontology.add_subclass o ~sub:"b" ~super:"c"
  in
  check_sorted_strings "only direct" [ "b" ] (Ontology.all_superclasses o "a")

let test_attributes_inherited () =
  let o = fixture () in
  check_sorted_strings "own" [ "Doors" ] (Ontology.own_attributes o "Car");
  check_sorted_strings "inherited" [ "Doors"; "Price" ] (Ontology.attributes o "Car");
  check_sorted_strings "diamond inherits once" [ "Doors"; "Price" ]
    (Ontology.attributes o "SUV")

let test_instances () =
  let o = fixture () in
  check_sorted_strings "direct" [ "k5" ] (Ontology.instances o "SUV");
  check_sorted_strings "via subclasses" [ "k5"; "polo" ] (Ontology.instances o "Car");
  check_sorted_strings "from the top" [ "k5"; "polo" ] (Ontology.instances o "Vehicle")

let test_roots_leaves () =
  let o = fixture () in
  check_bool "Thing is root" true (List.mem "Thing" (Ontology.roots o));
  check_bool "SUV is leaf" true (List.mem "SUV" (Ontology.leaves o));
  check_bool "Vehicle not leaf" false (List.mem "Vehicle" (Ontology.leaves o))

let test_remove () =
  let o = fixture () in
  let o = Ontology.remove_term o "Car" in
  check_bool "gone" false (Ontology.has_term o "Car");
  check_bool "incident gone" false (Ontology.has_rel o "SUV" Rel.subclass_of "Car");
  let o2 = Ontology.remove_rel (fixture ()) "Car" Rel.subclass_of "Vehicle" in
  check_bool "edge only" true (Ontology.has_term o2 "Car")

let test_closure_transitive () =
  let o = fixture () in
  let c = Ontology.closure o in
  check_bool "closed subclass edge" true
    (Ontology.has_rel c "SUV" Rel.subclass_of "Thing");
  (* Closure is derived; the original ontology is untouched. *)
  check_bool "original untouched" false
    (Ontology.has_rel o "SUV" Rel.subclass_of "Thing")

let test_closure_symmetric_inverse_implies () =
  let relations =
    Rel.empty_registry
    |> fun r -> Rel.declare r "marriedTo" [ Rel.Symmetric ]
    |> fun r -> Rel.declare r "owns" [ Rel.Inverse_of "ownedBy" ]
    |> fun r -> Rel.declare r "ownedBy" []
    |> fun r -> Rel.declare r "drives" [ Rel.Implies "uses" ]
    |> fun r -> Rel.declare r "uses" []
  in
  let o =
    Ontology.create ~relations "soc"
    |> fun o -> Ontology.add_rel o "ann" "marriedTo" "bob"
    |> fun o -> Ontology.add_rel o "ann" "owns" "car1"
    |> fun o -> Ontology.add_rel o "bob" "drives" "car1"
  in
  let c = Ontology.closure o in
  check_bool "symmetric" true (Ontology.has_rel c "bob" "marriedTo" "ann");
  check_bool "inverse" true (Ontology.has_rel c "car1" "ownedBy" "ann");
  check_bool "implies" true (Ontology.has_rel c "bob" "uses" "car1")

let test_closure_interaction_fixpoint () =
  (* Implies feeding a transitive relation requires a second round. *)
  let relations =
    Rel.empty_registry
    |> fun r -> Rel.declare r "next" [ Rel.Implies "reach" ]
    |> fun r -> Rel.declare r "reach" [ Rel.Transitive ]
  in
  let o =
    Ontology.create ~relations "chain"
    |> fun o -> Ontology.add_rel o "a" "next" "b"
    |> fun o -> Ontology.add_rel o "b" "next" "c"
  in
  let c = Ontology.closure o in
  check_bool "derived transitively" true (Ontology.has_rel c "a" "reach" "c")

let test_qualify () =
  let o = fixture () in
  let g = Ontology.qualify o in
  check_bool "qualified node" true (Digraph.mem_node g "veh:Car");
  check_bool "qualified edge" true (Digraph.mem_edge g "veh:Car" Rel.subclass_of "veh:Vehicle");
  check_int "same node count" (Ontology.nb_terms o) (Digraph.nb_nodes g)

let test_restrict () =
  let o = fixture () in
  let r = Ontology.restrict o [ "Car"; "Vehicle"; "nonexistent" ] in
  check_sorted_strings "kept" [ "Car"; "Vehicle" ] (Ontology.terms r);
  check_bool "induced edge" true (Ontology.has_rel r "Car" Rel.subclass_of "Vehicle")

let test_with_name () =
  let o = Ontology.with_name (fixture ()) "renamed" in
  Alcotest.(check string) "renamed" "renamed" (Ontology.name o);
  check_bool "graph preserved" true (Ontology.has_term o "Car")

let test_term_of () =
  Alcotest.check term "qualify one" (Term.make ~ontology:"veh" "Car")
    (Ontology.term_of (fixture ()) "Car")

(* [qualify] against its definition, renaming term by term; "o:a" and
   "o:o:b" name terms that collide with qualified forms. *)
let prop_qualify_renames =
  let nodes = [ "a"; "b"; "c"; "o:a"; "o:o:b"; "z" ] in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 3) (oneofl nodes))
        (list_size (int_range 0 12)
           (map3
              (fun s l d -> { Digraph.src = s; label = l; dst = d })
              (oneofl nodes) (oneofl [ "S"; "x" ]) (oneofl nodes))))
  in
  QCheck.Test.make ~count:300 ~name:"qualify = term-by-term renaming"
    (QCheck.make gen) (fun (isolated, edges) ->
      let o =
        Ontology.with_graph (Ontology.create "o")
          (Digraph.of_edges ~nodes:isolated edges)
      in
      let g = Ontology.graph o in
      let reference =
        Digraph.fold_nodes (fun n acc -> Digraph.rename_node acc n ("o:" ^ n)) g g
      in
      Digraph.equal (Ontology.qualify o) reference)

let suite =
  [
    ( "ontology",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "sub/super" `Quick test_sub_super;
        Alcotest.test_case "non-transitive registry" `Quick test_nontransitive_when_undeclared;
        Alcotest.test_case "attribute inheritance" `Quick test_attributes_inherited;
        Alcotest.test_case "instances" `Quick test_instances;
        Alcotest.test_case "roots/leaves" `Quick test_roots_leaves;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "closure transitive" `Quick test_closure_transitive;
        Alcotest.test_case "closure sym/inv/impl" `Quick test_closure_symmetric_inverse_implies;
        Alcotest.test_case "closure fixpoint" `Quick test_closure_interaction_fixpoint;
        Alcotest.test_case "qualify" `Quick test_qualify;
        QCheck_alcotest.to_alcotest prop_qualify_renames;
        Alcotest.test_case "restrict" `Quick test_restrict;
        Alcotest.test_case "with_name" `Quick test_with_name;
        Alcotest.test_case "term_of" `Quick test_term_of;
      ] );
  ]
