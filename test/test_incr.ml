(* Delta-driven incremental analysis: Transform.invert round-trips,
   Label_index.update ≡ fresh rebuild, Workspace.edit + incremental lint
   ≡ cold lint over randomized edit scripts, delta.* plan counters, and
   the enabled-code fingerprint in the lint memo key.  Together the
   properties replay well over 500 random edit scripts. *)

open Helpers

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node_pool = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
let label_pool = [ "S"; "A"; "I"; "SI"; "x" ]

let sorted l = List.sort compare l
let sorted_nodes g = sorted (Digraph.nodes g)

(* ------------------------------------------------------------------ *)
(* Transform.invert round-trips                                       *)
(* ------------------------------------------------------------------ *)

(* apply (apply g op) (invert g op) = g, exactly, whenever the op is
   applicable: NA of a node the graph does not know, ND of a node it
   does, ED of anything.  The one documented exception is EA — endpoint
   nodes implicitly created by Add_edges persist after its inversion
   (Delete_edges cannot remove nodes), so there the edge set is exact
   and the node set gains exactly the added edges' endpoints. *)

let roundtrip g op =
  let g' = Transform.apply g op in
  Transform.apply g' (Transform.invert g op)

let edge_gen_over labels =
  let open QCheck.Gen in
  map3 (fun s l d -> e s l d) (oneofl node_pool) (oneofl labels)
    (oneofl node_pool)

let edge_gen = edge_gen_over label_pool

let graph_and_edges =
  QCheck.make
    ~print:(fun (g, es) ->
      Format.asprintf "@[<v>g=%a@ es=%s@]" Digraph.pp g
        (String.concat "; " (List.map Digraph.edge_to_string es)))
    QCheck.Gen.(
      pair
        (map (fun es -> Digraph.of_edges es)
           (list_size (int_range 0 20) edge_gen))
        (list_size (int_range 0 6) edge_gen))

let prop_invert_na =
  QCheck.Test.make ~count:150
    ~name:"NA of a fresh node inverts up to edge-created endpoints"
    graph_and_edges
    (fun (g, es) ->
      (* "zz" is outside the pool, so the node is always fresh; incident
         edges are manufactured by pinning one endpoint to it.  The far
         endpoints share the EA caveat: implicitly created by the edge
         list, they outlive the inverting Delete_node. *)
      let n = "zz" in
      let incident =
        List.mapi
          (fun i edge ->
            if i mod 2 = 0 then { edge with Digraph.src = n }
            else { edge with Digraph.dst = n })
          es
      in
      let back = roundtrip g (Transform.Add_node (n, incident)) in
      let far =
        List.concat_map (fun (e : Digraph.edge) -> [ e.src; e.dst ]) incident
        |> List.filter (fun m -> m <> n)
      in
      sorted (Digraph.edges back) = sorted (Digraph.edges g)
      && sorted_nodes back
         = sorted (List.sort_uniq compare (Digraph.nodes g @ far)))

let prop_invert_nd =
  QCheck.Test.make ~count:150 ~name:"ND of a present node inverts exactly"
    graph_and_edges
    (fun (g, _) ->
      match Digraph.nodes g with
      | [] -> true
      | n :: _ -> Digraph.equal g (roundtrip g (Transform.Delete_node n)))

let prop_invert_ed =
  QCheck.Test.make ~count:150 ~name:"ED inverts exactly (absent edges are no-ops)"
    graph_and_edges
    (fun (g, es) -> Digraph.equal g (roundtrip g (Transform.Delete_edges es)))

let prop_invert_ea =
  QCheck.Test.make ~count:150
    ~name:"EA inverts up to implicitly created endpoints" graph_and_edges
    (fun (g, es) ->
      let back = roundtrip g (Transform.Add_edges es) in
      let endpoints =
        List.concat_map (fun (e : Digraph.edge) -> [ e.src; e.dst ]) es
      in
      sorted (Digraph.edges back) = sorted (Digraph.edges g)
      && sorted_nodes back
         = sorted
             (List.sort_uniq compare (Digraph.nodes g @ endpoints)))

(* The corner the caveat is about, pinned down deterministically. *)
let test_invert_ea_creates_endpoints () =
  let g = Digraph.of_edges [ e "a" "S" "b" ] in
  let op = Transform.Add_edges [ e "p" "x" "q"; e "a" "S" "b" ] in
  let back = roundtrip g op in
  check_bool "original edge survives" true (Digraph.mem_edge back "a" "S" "b");
  check_bool "fresh edge gone" false (Digraph.mem_edge back "p" "x" "q");
  check_bool "fresh endpoints persist" true
    (Digraph.mem_node back "p" && Digraph.mem_node back "q");
  check_int "edge set is exact" (Digraph.nb_edges g) (Digraph.nb_edges back)

(* ------------------------------------------------------------------ *)
(* Label_index.update ≡ fresh rebuild                                 *)
(* ------------------------------------------------------------------ *)

let op_gen_over edge_gen =
  let open QCheck.Gen in
  let node = oneofl node_pool in
  oneof
    [
      map (fun n -> Transform.Add_node (n, [])) node;
      map (fun n -> Transform.Delete_node n) node;
      map (fun e -> Transform.Add_edges [ e ]) edge_gen;
      map (fun e -> Transform.Delete_edges [ e ]) edge_gen;
    ]

let graph_and_script_over labels =
  let edge_gen = edge_gen_over labels in
  QCheck.make
    ~print:(fun (g, ops) ->
      Format.asprintf "@[<v>g=%a@ ops=%s@]" Digraph.pp g
        (String.concat "; " (List.map Transform.to_string ops)))
    QCheck.Gen.(
      pair
        (map (fun es -> Digraph.of_edges es)
           (list_size (int_range 0 20) edge_gen))
        (list_size (int_range 1 12) (op_gen_over edge_gen)))

let graph_and_script = graph_and_script_over label_pool

let index_agrees idx g =
  let fresh = Label_index.of_graph g in
  sorted (Label_index.nodes idx) = sorted (Label_index.nodes fresh)
  && List.for_all
       (fun l ->
         Label_index.mem_label idx l = Label_index.mem_label fresh l
         && sorted (Label_index.edges_with idx l)
            = sorted (Label_index.edges_with fresh l)
         && sorted (Label_index.sources_with idx l)
            = sorted (Label_index.sources_with fresh l)
         && sorted (Label_index.targets_with idx l)
            = sorted (Label_index.targets_with fresh l))
       label_pool
  && List.for_all
       (fun n ->
         Label_index.out_degree idx n = Label_index.out_degree fresh n
         && Label_index.in_degree idx n = Label_index.in_degree fresh n
         && List.for_all
              (fun l ->
                Label_index.out_label_degree idx n l
                = Label_index.out_label_degree fresh n l
                && Label_index.in_label_degree idx n l
                   = Label_index.in_label_degree fresh n l)
              label_pool)
       node_pool

let prop_index_patch_equiv =
  QCheck.Test.make ~count:300
    ~name:"Label_index.update = rebuild under NA/ND/EA/ED" graph_and_script
    (fun (g0, ops) ->
      (* Patch per primitive (the tightest deltas), then once more with
         the whole script as a single delta. *)
      let stepwise =
        let _, _, ok =
          List.fold_left
            (fun (g, idx, ok) op ->
              let post, delta = Delta.of_ops g [ op ] in
              let idx = Label_index.update idx delta post in
              (post, idx, ok && index_agrees idx post))
            (g0, Label_index.of_graph g0, true)
            ops
        in
        ok
      in
      let wholesale =
        let post, delta = Delta.of_ops g0 ops in
        index_agrees (Label_index.update (Label_index.of_graph g0) delta post) post
      in
      stepwise && wholesale)

(* ------------------------------------------------------------------ *)
(* Consistency.recheck ≡ Consistency.check                            *)
(* ------------------------------------------------------------------ *)

(* The script is applied in two halves whose deltas are united, as the
   workspace's edit chain does.  The labels are the ones the checks
   read; "x" is undeclared, so strict runs also exercise the per-label
   undeclared-relationship re-derivation. *)
let prop_consistency_recheck_equiv =
  QCheck.Test.make ~count:300
    ~name:"Consistency.recheck = check under NA/ND/EA/ED"
    (graph_and_script_over
       [ Rel.subclass_of; Rel.semantic_implication; Rel.attribute_of;
         Rel.instance_of; "x" ])
    (fun (g0, ops) ->
      let before = Ontology.with_graph (Ontology.create "o") g0 in
      let half = List.length ops / 2 in
      let g1, d1 = Delta.of_ops g0 (List.filteri (fun i _ -> i < half) ops) in
      let g2, d2 = Delta.of_ops g1 (List.filteri (fun i _ -> i >= half) ops) in
      let after = Ontology.with_graph before g2 in
      List.for_all
        (fun strict ->
          let previous = Consistency.check ~strict before in
          Consistency.recheck ~strict ~before ~previous
            ~delta:(Delta.union d1 d2) after
          = Consistency.check ~strict after)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Workspace.edit + incremental lint ≡ cold lint                      *)
(* ------------------------------------------------------------------ *)

let rec rm path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Rules over an articulation's own pair of sources: a Disjoint pair
   that [via] makes reachable from one more left concept, a
   cross-source implication and a pattern rule, so taxonomy, node and
   label edits all reach the conflict and rules passes. *)
let pair_rules art =
  let l = Articulation.left art and r = Articulation.right art in
  let c = Gen.concept_name in
  Rule_parser.parse_exn
    (String.concat "; "
       [
         Printf.sprintf "[dj] disjoint %s:%s, %s:%s" l (c 5) r (c 6);
         Printf.sprintf "[via] %s:%s => %s:%s" l (c 7) r (c 6);
         Printf.sprintf "[up] %s:%s => %s:%s" l (c 1) r (c 2);
         Printf.sprintf "[pt] pat<%s:%s:%s> => %s:%s" l (c 1) (c 2) r (c 0);
       ])

let build_federation ?(rules = false) ~islands ~terms ~seed dir =
  let ws =
    match Workspace.init dir with
    | Ok ws -> ws
    | Error m -> Alcotest.failf "init: %s" m
  in
  let p = Workspace.publisher ws in
  (match
     Gen.federation_stream ~islands ~terms ~seed ~prefix:"src"
       ~emit_source:(fun o ->
         Workspace.publish_source p o ~ext:".adj"
           ~payload:(Adjacency.print (Ontology.graph o)))
       ~emit_articulation:(fun a ->
         Workspace.publish_articulation p
           (if rules then Articulation.with_rules a (pair_rules a) else a))
       ()
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "stream: %s" m);
  (match Workspace.commit p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "commit: %s" m);
  ws

(* One long-lived fixture: every qcheck case edits the workspace further
   and checks warm-incremental against a cold recomputation, so the
   equivalence is exercised from hundreds of distinct reached states,
   not only from the pristine one. *)
let long_lived build =
  let state = ref None in
  fun f ->
    let ws =
      match !state with
      | Some ws -> ws
      | None ->
          let dir = Filename.temp_file "onion-incr" "" in
          Sys.remove dir;
          let ws = build dir in
          at_exit (fun () -> if Sys.file_exists dir then rm dir);
          state := Some ws;
          ws
    in
    f ws

let with_federation = long_lived (build_federation ~islands:2 ~terms:8 ~seed:7)

(* Four islands in two articulation groups, with rules: an edit reaches
   one group's cells and leaves the other group's Unaffected. *)
let with_articulated_federation =
  long_lived (build_federation ~rules:true ~islands:4 ~terms:8 ~seed:7)

(* Edits mix taxonomy labels (conflict/rule triggers), plain labels and
   fresh vs. existing names, against every source of the federation. *)
let ws_edit_op =
  let open QCheck.Gen in
  let node =
    oneof
      [
        oneofl (Gen.concept_pool 8);
        oneofl [ "zz0"; "zz1"; "zz2"; "zz3" ];
      ]
  in
  let label =
    oneofl [ Rel.subclass_of; Rel.semantic_implication; Rel.attribute_of; "x" ]
  in
  let edge = map3 (fun s l d -> e s l d) node label node in
  oneof
    [
      map (fun n -> Transform.Add_node (n, [])) node;
      map (fun n -> Transform.Delete_node n) node;
      map (fun e -> Transform.Add_edges [ e ]) edge;
      map (fun e -> Transform.Delete_edges [ e ]) edge;
    ]

(* Taxonomy edits under the hub zz0 that touch no term the rules name
   in a left source: they change the articulation's findings, and only
   the named-source trigger can see them. *)
let hub_op =
  let open QCheck.Gen in
  map2
    (fun sub add ->
      let edges = [ e sub Rel.subclass_of "zz0" ] in
      if add then Transform.Add_edges edges else Transform.Delete_edges edges)
    (oneofl [ "zz1"; "zz2"; "zz3"; Gen.concept_name 0; Gen.concept_name 3 ])
    bool

let ws_edit_case ?(ops = QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) ws_edit_op)
    ~sources () =
  QCheck.make
    ~print:(fun (src, ops) ->
      Printf.sprintf "src%d: %s" src
        (String.concat "; " (List.map Transform.to_string ops)))
    QCheck.Gen.(pair (int_range 0 (sources - 1)) ops)

let diags ws = (Workspace.lint ws).Lint.diagnostics

(* Edit, then compare the incremental report (twice) with a cold one;
   [setup] is an edit of its own before that, checked alike. *)
let incremental_equals_cold ?(setup = []) with_ws (src, ops) =
  with_ws (fun ws ->
      let source = Gen.federation_source_name "src" src in
      List.for_all
        (fun ops ->
          (match Workspace.edit ws ~source ops with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "edit: %s" m);
          let warm = diags ws in
          let warm_again = diags ws in
          let cold = Cache_stats.with_disabled (fun () -> diags ws) in
          warm = cold && warm_again = cold)
        (if setup = [] then [ ops ] else [ setup; ops ]))

let prop_incremental_lint_equiv =
  QCheck.Test.make ~count:500
    ~name:"incremental Workspace.lint = cold recomputation after edits"
    (ws_edit_case ~sources:2 ())
    (incremental_equals_cold with_federation)

(* Every case first makes zz0 (a term no rule names) imply both sides
   of [dj], in an edit of its own; half the cases then edit only under
   that hub. *)
let prop_incremental_lint_equiv_groups =
  QCheck.Test.make ~count:400
    ~name:"incremental lint = cold across two articulation groups"
    (ws_edit_case ~sources:4
       ~ops:
         QCheck.Gen.(
           oneof
             [
               list_size (int_range 1 4) ws_edit_op;
               list_size (int_range 1 2) hub_op;
             ])
       ())
    (incremental_equals_cold
       ~setup:
         [
           Transform.Add_edges
             [
               e "zz0" Rel.subclass_of (Gen.concept_name 5);
               e "zz0" Rel.subclass_of (Gen.concept_name 7);
             ];
         ]
       with_articulated_federation)

(* ------------------------------------------------------------------ *)
(* The locality boundary                                              *)
(* ------------------------------------------------------------------ *)

(* The argument behind scoping the articulation passes: handing the
   conflict checker only the sources its rules name changes no finding,
   whatever the unnamed sources' taxonomies are. *)
let prop_conflict_named_sources =
  let onto_names = [ "o0"; "o1"; "o2"; "o3" ] in
  let tax = [ Rel.subclass_of; Rel.semantic_implication; "x" ] in
  let gen =
    let open QCheck.Gen in
    let term =
      map2 (fun o n -> Term.make ~ontology:o n) (oneofl onto_names)
        (oneofl node_pool)
    in
    let rule =
      oneof
        [
          map2 (fun a b -> Rule.implies a b) term term;
          map2 (fun a b -> Rule.disjoint a b) term term;
        ]
    in
    pair
      (flatten_l
         (List.map
            (fun name ->
              map
                (fun es ->
                  Ontology.with_graph (Ontology.create name) (Digraph.of_edges es))
                (list_size (int_range 0 12) (edge_gen_over tax)))
            onto_names))
      (list_size (int_range 0 5) rule)
  in
  QCheck.Test.make ~count:300
    ~name:"Conflict.check over the named sources = over every source"
    (QCheck.make
       ~print:(fun (_, rules) -> String.concat "; " (List.map Rule.to_string rules))
       gen)
    (fun (ontologies, rules) ->
      let named = List.concat_map Rule.ontologies rules in
      let scoped =
        List.filter (fun o -> List.mem (Ontology.name o) named) ontologies
      in
      Conflict.check ~ontologies rules = Conflict.check ~ontologies:scoped rules)

let plan_count name =
  Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))

(* Both named sources are read: the findings below exist only through
   right's taxonomy (B < C).  The unnamed source [other] has the same
   term names and no bearing on them. *)
let test_named_sources_are_read () =
  let s = Rel.subclass_of in
  let source name edges =
    Lint.source (Ontology.with_graph (Ontology.create name) (Digraph.of_edges edges))
  in
  let art =
    Articulation.create ~ontology:(Ontology.create "lr") ~left:"left"
      ~right:"right"
      ~rules:
        (Rule_parser.parse_exn
           "[r1] left:A => right:B; [r2] left:A => right:C; [dj] disjoint \
            left:A, right:C")
      []
  in
  let report =
    Lint.run
      (Lint.view
         ~articulations:[ Lint.articulation art ]
         [
           source "left" [ e "A" s "X" ];
           source "right" [ e "B" s "C" ];
           source "other" [ e "A" s "B"; e "C" s "A" ];
         ])
  in
  let found code subject =
    List.exists
      (fun (d : Diagnostic.t) ->
        String.equal d.Diagnostic.code code && d.Diagnostic.subject = Some subject)
      report.Lint.diagnostics
  in
  check_bool "disjoint-implication through right's taxonomy" true
    (found "disjoint-implication" "left:A / right:C");
  check_bool "r2 shadowed through right's taxonomy" true
    (found "shadowed-rule" "r2");
  check_bool "no finding from the unnamed source" false
    (List.exists
       (fun (d : Diagnostic.t) ->
         match d.Diagnostic.subject with
         | Some subj -> String.length subj >= 6 && String.sub subj 0 6 = "other:"
         | None -> false)
       report.Lint.diagnostics)

(* A source edit does reach the articulations whose rules name that
   source: X implies both sides of [disjoint left:A, right:C] (X < A,
   and X < B => right:C), so a fresh leaf under X is a new
   disjoint-overlap subject.  The second group (p, q) is untouched and
   must be skipped. *)
let test_fresh_leaf_under_overlap () =
  let dir = Filename.temp_file "onion-incr-locality" "" in
  Sys.remove dir;
  let ws =
    match Workspace.init dir with
    | Ok ws -> ws
    | Error m -> Alcotest.failf "init: %s" m
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () ->
      let ok what = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" what m in
      let p = Workspace.publisher ws in
      let source name edges =
        let o = Ontology.with_graph (Ontology.create name) (Digraph.of_edges edges) in
        ok "publish"
          (Workspace.publish_source p o ~ext:".adj"
             ~payload:(Adjacency.print (Ontology.graph o)))
      in
      let s = Rel.subclass_of in
      source "left" [ e "X" s "A"; e "X" s "B" ];
      source "right" [ e "C" s "D" ];
      source "p" [ e "X" s "A"; e "X" s "B" ];
      source "q" [ e "C" s "D" ];
      let art name l r =
        Articulation.create ~ontology:(Ontology.create name) ~left:l ~right:r
          ~rules:
            (Rule_parser.parse_exn
               (Printf.sprintf "[dj] disjoint %s:A, %s:C; [via] %s:B => %s:C"
                  l r l r))
          []
      in
      ok "publish" (Workspace.publish_articulation p (art "lr" "left" "right"));
      ok "publish" (Workspace.publish_articulation p (art "pq" "p" "q"));
      ok "commit" (Workspace.commit p);
      let overlap subject ds =
        List.exists
          (fun (d : Diagnostic.t) ->
            String.equal d.Diagnostic.code "disjoint-overlap"
            && d.Diagnostic.subject = Some subject)
          ds
      in
      let before = diags ws in
      check_bool "X overlaps before the edit" true (overlap "left:X" before);
      check_bool "no Z yet" false (overlap "left:Z" before);
      let rerun0 = plan_count "delta.passes_rerun"
      and skipped0 = plan_count "delta.passes_skipped" in
      ignore
        (ok "edit"
           (Workspace.edit ws ~source:"left"
              [ Transform.Add_node ("Z", [ e "Z" s "X" ]) ]));
      let warm = diags ws in
      check_bool "the fresh leaf overlaps" true (overlap "left:Z" warm);
      check_bool "equal to cold" true
        (warm = Cache_stats.with_disabled (fun () -> diags ws));
      (* Re-run: lr's conflict and rules, left's consistency and horn,
         the two conversion cells.  Skipped: lr's bridges, pq's three
         cells, the other five parts' consistency and horn. *)
      check_int "cells re-run" 6 (plan_count "delta.passes_rerun" - rerun0);
      check_int "cells skipped" 14
        (plan_count "delta.passes_skipped" - skipped0))

(* ------------------------------------------------------------------ *)
(* delta.* plan counters                                              *)
(* ------------------------------------------------------------------ *)

let test_delta_counters () =
  ignore
  @@ with_federation (fun ws ->
      ignore (Workspace.lint ws);
      let before =
        List.map plan_count
          [ "delta.ops"; "delta.passes_rerun"; "delta.passes_skipped" ]
      in
      (match
         Workspace.edit ws
           ~source:(Gen.federation_source_name "src" 0)
           [ Transform.Add_node ("zz_counter_probe", []) ]
       with
      | Ok d -> check_int "one op" 1 (Delta.ops d)
      | Error m -> Alcotest.failf "edit: %s" m);
      ignore (Workspace.lint ws);
      let after =
        List.map plan_count
          [ "delta.ops"; "delta.passes_rerun"; "delta.passes_skipped" ]
      in
      List.iter2
        (fun b a -> check_bool "counter is monotone" true (a >= b))
        before after;
      check_bool "edit ops were counted" true
        (List.nth after 0 > List.nth before 0);
      check_bool "some passes were skipped" true
        (List.nth after 2 > List.nth before 2);
      (* Plan counters describe planner behaviour, not cached values:
         they must survive a cache wipe. *)
      Cache_stats.clear_all ();
      List.iter2
        (fun a name ->
          check_int (name ^ " survives clear_all") a (plan_count name))
        after
        [ "delta.ops"; "delta.passes_rerun"; "delta.passes_skipped" ];
      true)

(* ------------------------------------------------------------------ *)
(* Enabled-code fingerprint in the lint memo key                      *)
(* ------------------------------------------------------------------ *)

let test_config_fingerprint () =
  check_bool "wildcard" true (String.equal (Lint.config_fingerprint None) "*");
  check_bool "order-insensitive" true
    (String.equal
       (Lint.config_fingerprint (Some [ "b"; "a" ]))
       (Lint.config_fingerprint (Some [ "a"; "b" ])));
  check_bool "restriction is distinct from wildcard" false
    (String.equal (Lint.config_fingerprint (Some [ "a" ])) "*")

(* A warmed full-report memo must not answer a restricted query (and
   vice versa): the enabled-code fingerprint is part of the key. *)
let test_enabled_not_confused_by_memo () =
  let dir = Filename.temp_file "onion-incr-cfg" "" in
  Sys.remove dir;
  let ws =
    match Workspace.init dir with
    | Ok ws -> ws
    | Error m -> Alcotest.failf "init: %s" m
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () ->
      let cyclic =
        Ontology.create "c"
        |> fun o ->
        Ontology.add_subclass o ~sub:"A" ~super:"B"
        |> fun o -> Ontology.add_subclass o ~sub:"B" ~super:"A"
      in
      let p = Workspace.publisher ws in
      (match
         Workspace.publish_source p cyclic ~ext:".adj"
           ~payload:(Adjacency.print (Ontology.graph cyclic))
       with
      | Ok () -> ()
      | Error m -> Alcotest.failf "publish: %s" m);
      (match Workspace.commit p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "commit: %s" m);
      let full = (Workspace.lint ws).Lint.diagnostics in
      check_bool "the cycle is reported" true (full <> []);
      let restricted =
        (Workspace.lint ~enabled:[ "no-such-code" ] ws).Lint.diagnostics
      in
      Alcotest.(check int) "restriction yields nothing" 0
        (List.length restricted);
      let full_again = (Workspace.lint ws).Lint.diagnostics in
      check_bool "wildcard memo is intact" true (full = full_again))

let suite =
  [
    ( "incr",
    [
      Alcotest.test_case "EA inversion leaves created endpoints" `Quick
        test_invert_ea_creates_endpoints;
      Alcotest.test_case "delta plan counters" `Quick test_delta_counters;
      Alcotest.test_case "fresh leaf under a disjoint overlap" `Quick
        test_fresh_leaf_under_overlap;
      Alcotest.test_case "articulation passes read the named sources" `Quick
        test_named_sources_are_read;
      Alcotest.test_case "config fingerprint" `Quick test_config_fingerprint;
      Alcotest.test_case "enabled codes key the lint memo" `Quick
        test_enabled_not_confused_by_memo;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_invert_na;
          prop_invert_nd;
          prop_invert_ed;
          prop_invert_ea;
          prop_index_patch_equiv;
          prop_incremental_lint_equiv;
          prop_incremental_lint_equiv_groups;
          prop_consistency_recheck_equiv;
          prop_conflict_named_sources;
        ] );
  ]
