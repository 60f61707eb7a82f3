type t = {
  name : string;
  graph : Digraph.t;
  relations : Rel.registry;
  revision : int;
      (* Fresh Revision stamp on any change to name, graph or registry;
         no-op graph mutations keep the stamp.  Equal revisions imply the
         very same ontology value, so result caches key on this alone. *)
}

let create ?(relations = Rel.standard_registry) name =
  if String.length name = 0 then invalid_arg "Ontology.create: empty name";
  if String.contains name ':' then
    invalid_arg "Ontology.create: ontology names must not contain ':'";
  { name; graph = Digraph.empty; relations; revision = Revision.fresh () }

let name o = o.name
let graph o = o.graph
let relations o = o.relations
let revision o = o.revision

(* Route every graph replacement through here: an unchanged graph (no-op
   mutation) keeps the ontology — and its revision — intact. *)
let update_graph o graph =
  if graph == o.graph then o
  else { o with graph; revision = Revision.fresh () }

let with_graph o graph = update_graph o graph

let with_name o name =
  if String.length name = 0 then invalid_arg "Ontology.with_name: empty name";
  if String.contains name ':' then
    invalid_arg "Ontology.with_name: ontology names must not contain ':'";
  { o with name; revision = Revision.fresh () }

let add_term o term = update_graph o (Digraph.add_node o.graph term)

let add_rel o src relationship dst =
  update_graph o (Digraph.add_edge o.graph src relationship dst)

let add_subclass o ~sub ~super = add_rel o sub Rel.subclass_of super
let add_attribute o ~concept ~attr = add_rel o concept Rel.attribute_of attr
let add_instance o ~instance ~concept = add_rel o instance Rel.instance_of concept

let add_implication o ~specific ~general =
  add_rel o specific Rel.semantic_implication general

let declare_relation o rel props =
  { o with relations = Rel.declare o.relations rel props; revision = Revision.fresh () }

let remove_term o term = update_graph o (Digraph.remove_node o.graph term)

let remove_rel o src relationship dst =
  update_graph o (Digraph.remove_edge o.graph src relationship dst)

let has_term o term = Digraph.mem_node o.graph term
let has_rel o src relationship dst = Digraph.mem_edge o.graph src relationship dst
let terms o = Digraph.nodes o.graph
let relationships o = Digraph.edges o.graph
let nb_terms o = Digraph.nb_nodes o.graph
let nb_relationships o = Digraph.nb_edges o.graph

let subclasses o term = Digraph.pred_by o.graph term Rel.subclass_of
let superclasses o term = Digraph.succ_by o.graph term Rel.subclass_of

let follow_subclass = Traversal.only [ Rel.subclass_of ]

let all_superclasses o term =
  if Rel.is_transitive o.relations Rel.subclass_of then
    Traversal.reachable ~follow:follow_subclass o.graph term
  else superclasses o term

let all_subclasses o term =
  if Rel.is_transitive o.relations Rel.subclass_of then
    Traversal.co_reachable ~follow:follow_subclass o.graph term
  else subclasses o term

let is_subclass o ~sub ~super =
  (not (String.equal sub super)) && List.mem super (all_superclasses o sub)

let own_attributes o term = Digraph.succ_by o.graph term Rel.attribute_of

let attributes o term =
  let inherited =
    List.concat_map (fun super -> own_attributes o super) (all_superclasses o term)
  in
  List.sort_uniq String.compare (own_attributes o term @ inherited)

let instances o term =
  let of_concept c = Digraph.pred_by o.graph c Rel.instance_of in
  List.sort_uniq String.compare
    (of_concept term @ List.concat_map of_concept (all_subclasses o term))

let roots o =
  List.filter (fun t -> superclasses o t = []) (terms o)

let leaves o =
  List.filter (fun t -> subclasses o t = []) (terms o)

(* Expand one round of property-derived edges; returns the enlarged graph. *)
let expand_once relations g =
  let expand_label g label =
    let props = Rel.properties relations label in
    List.fold_left
      (fun g prop ->
        match (prop : Rel.property) with
        | Rel.Transitive ->
            Traversal.transitive_closure ~follow:(Traversal.only [ label ])
              ~close_label:label g
        | Rel.Symmetric ->
            Digraph.fold_edges
              (fun (e : Digraph.edge) g ->
                if String.equal e.label label then Digraph.add_edge g e.dst label e.src
                else g)
              g g
        | Rel.Reflexive ->
            Digraph.fold_nodes (fun n g -> Digraph.add_edge g n label n) g g
        | Rel.Inverse_of other ->
            Digraph.fold_edges
              (fun (e : Digraph.edge) g ->
                if String.equal e.label label then Digraph.add_edge g e.dst other e.src
                else g)
              g g
        | Rel.Implies other ->
            Digraph.fold_edges
              (fun (e : Digraph.edge) g ->
                if String.equal e.label label then Digraph.add_edge g e.src other e.dst
                else g)
              g g)
      g props
  in
  List.fold_left expand_label g (List.map fst (Rel.declared relations))

let closure o =
  let rec fixpoint g iterations =
    let g' = expand_once o.relations g in
    if Digraph.nb_edges g' = Digraph.nb_edges g || iterations = 0 then g'
    else fixpoint g' (iterations - 1)
  in
  (* Property interactions (Implies feeding Transitive, inverses feeding
     implications) converge in very few rounds; the bound is a safety net
     against pathological registries. *)
  update_graph o (fixpoint o.graph 16)

(* Renaming term by term re-links every incident edge per rename; when
   no term already carries the "name:" prefix no qualified name can
   collide with a term, so the graph is rebuilt in one pass instead. *)
let qualify o =
  let prefix = o.name ^ ":" in
  let q n = prefix ^ n in
  let clash =
    Digraph.fold_nodes (fun n acc -> acc || String.starts_with ~prefix n) o.graph false
  in
  if clash || Digraph.is_empty o.graph then
    Digraph.fold_nodes (fun n g -> Digraph.rename_node g n (q n)) o.graph o.graph
  else
    Digraph.fold_edges
      (fun (e : Digraph.edge) g -> Digraph.add_edge g (q e.src) e.label (q e.dst))
      o.graph
      (Digraph.fold_nodes (fun n g -> Digraph.add_node g (q n)) o.graph Digraph.empty)

let restrict o keep = update_graph o (Digraph.subgraph o.graph keep)

let term_of o term_name = Term.make ~ontology:o.name term_name

let equal o1 o2 = String.equal o1.name o2.name && Digraph.equal o1.graph o2.graph

let pp ppf o =
  Format.fprintf ppf "@[<v2>ontology %s (%d terms, %d relationships)" o.name
    (nb_terms o) (nb_relationships o);
  List.iter
    (fun (e : Digraph.edge) ->
      Format.fprintf ppf "@,%s -%s-> %s" e.src (Rel.short e.label) e.dst)
    (relationships o);
  Format.fprintf ppf "@]"
