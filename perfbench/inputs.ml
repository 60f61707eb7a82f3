(* Seeded inputs for the three workloads.  Everything the program under
   test receives is generated here from the workload seed: articulated
   source pairs that carry instances, the query streams and the edit
   stream.  The same seed gives the same inputs. *)

let ok what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* ------------------------------------------------------------------ *)
(* Sizes                                                              *)
(* ------------------------------------------------------------------ *)

type size = {
  flat_pairs : int;  (** Source pairs in the flat workspaces. *)
  paged_pairs : int;  (** Source pairs in the paged workspace. *)
  terms : int;  (** Concepts per source (attribute nodes come on top). *)
  per_leaf : int;  (** Instances added to every leaf concept. *)
  round_queries : int;
      (** Seeded queries per round; each round adds one keyword probe. *)
  lint_check_every : int;
      (** Edits between two checks of the incremental lint report. *)
}

let full =
  {
    flat_pairs = 4;
    paged_pairs = 40;
    terms = 100;
    per_leaf = 3;
    round_queries = 49;
    lint_check_every = 37;
  }

(* The self-test size: every path and check, in about a second. *)
let tiny =
  {
    flat_pairs = 2;
    paged_pairs = 4;
    terms = 40;
    per_leaf = 1;
    round_queries = 9;
    lint_check_every = 5;
  }

(* ------------------------------------------------------------------ *)
(* Articulated pairs                                                  *)
(* ------------------------------------------------------------------ *)

let left_name k = Printf.sprintf "l%d" k
let right_name k = Printf.sprintf "r%d" k
let art_name k = Printf.sprintf "a%d" k

(* The numeric attributes the query generator filters on. *)
let numeric_attrs = [ "Price"; "Weight"; "Capacity" ]

(* Give every leaf concept [per_leaf] instances carrying numeric
   attribute values (edges to literal nodes, the paper's [MyCar -Price->
   2000] form), and declare those attributes on the concept so queries
   bind them by name. *)
let with_instances rng ~per_leaf o =
  let g = Ontology.graph o in
  let is_instance t =
    List.exists
      (fun (e : Digraph.edge) -> String.equal e.label Rel.instance_of)
      (Digraph.out_edges g t)
  in
  let concepts =
    Ontology.leaves o
    |> List.filter (fun c -> (not (List.mem c Gen.attr_pool)) && not (is_instance c))
  in
  List.fold_left
    (fun o c ->
      let o =
        List.fold_left
          (fun o attr -> Ontology.add_attribute o ~concept:c ~attr)
          o numeric_attrs
      in
      let rec add o j =
        if j = per_leaf then o
        else
          let inst = Printf.sprintf "%s_v%d" c j in
          let o = Ontology.add_instance o ~instance:inst ~concept:c in
          let o =
            List.fold_left
              (fun o attr ->
                if Prng.bool rng 0.8 then
                  Ontology.add_rel o inst attr (string_of_int (Prng.int rng 50_000))
                else o)
              o numeric_attrs
          in
          add o (j + 1)
      in
      add o 0)
    o concepts

type pair = { left : Ontology.t; right : Ontology.t; art : Articulation.t }

(* Pair [k] of the workspace generated from [seed]: two overlapping
   sources and the articulation their ground-truth rules generate.  The
   shared slice of the concept pool always holds its first 30% of
   names, [Order] among them (with at least 34 terms). *)
let pair size ~seed k =
  let profile = { Gen.default_profile with Gen.n_terms = size.terms } in
  let p =
    Gen.overlapping_pair ~profile ~overlap:0.3 ~seed:((seed * 1009) + k)
      ~left_name:(left_name k) ~right_name:(right_name k) ()
  in
  (* The right side may have renamed [Order]; keep it under its own name
     too, so that the keyword probe names a concept of every seed. *)
  let right, rules =
    if Ontology.has_term p.Gen.right "Order" then (p.Gen.right, p.Gen.ground_truth)
    else
      ( Ontology.add_term p.Gen.right "Order",
        Rule.implies
          (Term.make ~ontology:(left_name k) "Order")
          (Term.make ~ontology:(right_name k) "Order")
        :: p.Gen.ground_truth )
  in
  let rng = Prng.create ((seed * 7919) + k) in
  let left = with_instances rng ~per_leaf:size.per_leaf p.Gen.left in
  let right = with_instances rng ~per_leaf:size.per_leaf right in
  let g =
    Generator.generate ~conversions:Conversion.builtin ~articulation_name:(art_name k)
      ~left ~right rules
  in
  { left; right; art = g.Generator.articulation }

(* Write [n] pairs as a workspace, one pair at a time: sources as
   adjacency files (the format [Workspace.edit] re-serializes
   deterministically), articulations as stored articulations, through
   one bulk publish.  [each] sees every pair as it is published. *)
let publish ~paged dir n make ~each =
  let ws = ok "init" (Workspace.init ~paged dir) in
  let p = Workspace.publisher ws in
  for k = 0 to n - 1 do
    let pa = make k in
    List.iter
      (fun o ->
        ok "publish source"
          (Workspace.publish_source p o ~ext:".adj"
             ~payload:(Adjacency.print (Ontology.graph o))))
      [ pa.left; pa.right ];
    ok "publish articulation" (Workspace.publish_articulation p pa.art);
    each pa
  done;
  ok "commit" (Workspace.commit p)

(* ------------------------------------------------------------------ *)
(* Query streams                                                      *)
(* ------------------------------------------------------------------ *)

(* The words the query lexer treats as keywords.  A concept with one of
   these names prints to a query text that [Query.parse] rejects: see
   [probe]. *)
let keywords =
  [ "select"; "from"; "where"; "and"; "order"; "by"; "limit"; "asc"; "desc"; "true"; "false" ]

let keyword_named (q : Query.t) =
  List.mem (String.lowercase_ascii q.Query.concept.Term.name) keywords

(* The keyword probe: a valid [Query.t] over a concept every generated
   articulation has, whose printed text the parser rejects ("trailing
   tokens after query").  Its text does not depend on the seed, so the
   failures it causes are the same share of every run. *)
let probe = Query.to_string (Query.v (Term.make ~ontology:(art_name 0) "Order"))

(* Seeded queries over one pair: [count] generated queries phrased
   against its articulation, as texts, with repeats dropped so that each
   text is sent once.  Keyword-named queries are drawn out (their number
   depends on the seed; [probe] stands for them at a fixed rate); the
   second component counts them. *)
let pair_queries ~seed ~count k pa =
  let u = Algebra.union ~left:pa.left ~right:pa.right pa.art in
  let qs = Query_gen.queries ~seed:((seed * 100_003) + k) ~count u in
  let kept = List.filter (fun q -> not (keyword_named q)) qs in
  let seen = Hashtbl.create count in
  let texts =
    List.filter_map
      (fun q ->
        let text = Query.to_string q in
        if Hashtbl.mem seen text then None
        else begin
          Hashtbl.add seen text ();
          Some text
        end)
      kept
  in
  (texts, List.length qs - List.length kept)

(* Interleave per-pair query lists round-robin, so consecutive queries
   go to different pairs. *)
let interleave lists =
  let rec go acc = function
    | [] -> List.rev acc
    | ls ->
        let heads = List.filter_map (function [] -> None | x :: _ -> Some x) ls in
        let tails = List.filter_map (function [] | [ _ ] -> None | _ :: t -> Some t) ls in
        go (List.rev_append heads acc) tails
  in
  go [] lists

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

(* The timed query stream: rounds of [size.round_queries] seeded
   queries followed by the probe, cycling through the seeded queries
   (it wraps only after the whole file). *)
type stream = { queries : string array; mutable pos : int }

let stream queries = { queries = Array.of_list queries; pos = 0 }

let next s =
  let q = s.queries.(s.pos mod Array.length s.queries) in
  s.pos <- s.pos + 1;
  q

let round size s = List.init size.round_queries (fun _ -> next s) @ [ probe ]

(* ------------------------------------------------------------------ *)
(* Edit stream                                                        *)
(* ------------------------------------------------------------------ *)

(* The concepts of a source graph (the endpoints of its subclass
   edges), and those of them that a bridge of [art] touches. *)
let edit_concepts g ~source art =
  let concepts =
    Digraph.fold_edges
      (fun (e : Digraph.edge) acc ->
        if String.equal e.label Rel.subclass_of then e.src :: e.dst :: acc else acc)
      g []
    |> List.sort_uniq String.compare
  in
  let bridged =
    List.concat_map
      (fun (b : Bridge.t) -> [ b.Bridge.src; b.Bridge.dst ])
      (Articulation.bridges art)
    |> List.filter_map (fun (t : Term.t) ->
           if String.equal t.Term.ontology source && List.mem t.Term.name concepts then
             Some t.Term.name
           else None)
    |> List.sort_uniq String.compare
  in
  (concepts, bridged)

(* The edits of one round, on one source: NA adds a fresh concept under
   a concept, three EAs add verb edges between concepts, three EDs
   delete them, ND deletes the new concept.  Endpoints are drawn from
   all of the source's concepts, except that the first EA always starts
   at a bridged concept, so that every round re-checks the articulation
   the same number of times whatever the seed.  A round leaves the
   source as it found it, so a long run edits a workspace of constant
   size. *)
let edit_round rng ~round ~concepts ~bridged g =
  let c = Prng.pick rng concepts in
  let rec fresh_edge froms taken =
    let src = Prng.pick rng froms and dst = Prng.pick rng concepts in
    let label = Prng.pick rng Gen.verb_pool in
    let e = { Digraph.src; label; dst } in
    if String.equal src dst || Digraph.mem_edge g src label dst || List.mem e taken then
      fresh_edge froms taken
    else e
  in
  let edges =
    List.fold_left
      (fun taken froms -> fresh_edge froms taken :: taken)
      []
      [ (if bridged = [] then concepts else bridged); concepts; concepts ]
    |> List.rev
  in
  let x = Printf.sprintf "zzEdit%d" round in
  Transform.(
    [ Add_node (x, [ { Digraph.src = x; label = Rel.subclass_of; dst = c } ]) ]
    @ List.map (fun e -> Add_edges [ e ]) edges
    @ List.map (fun e -> Delete_edges [ e ]) edges
    @ [ Delete_node x ])
