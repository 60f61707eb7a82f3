type source = {
  ontology : Ontology.t;
  file : string option;
  text : string option;
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
}

let source ?file ?text ontology = { ontology; file; text }

let articulation ?file ?text articulation =
  { articulation; art_file = file; art_text = text }

let view ?conversions ?(articulations = []) sources =
  { sources; articulations; conversions }

type timing = { pass : string; ns : int }

type report = { diagnostics : Diagnostic.t list; timings : timing list }

let pass_names =
  [ "consistency"; "conflict"; "rules"; "bridges"; "horn"; "conversions" ]

(* ------------------------------------------------------------------ *)
(* Span recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Subjects arrive as identifiers, qualified terms or comma-joined cycle
   lists; the span points at the first identifier that occurs in the
   text. *)
let first_word s =
  let is_word_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  let n = String.length s in
  let start = ref 0 in
  while !start < n && not (is_word_char s.[!start]) do incr start done;
  let stop = ref !start in
  while !stop < n && is_word_char s.[!stop] do incr stop done;
  if !stop > !start then Some (String.sub s !start (!stop - !start)) else None

let locate text needle =
  match text with None -> None | Some t -> Loc.find_word t needle

let locate_subject text subject =
  match first_word subject with None -> None | Some w -> locate text w

(* A term as it appears in an articulation XML file: prefer the
   qualified rendering, fall back to the bare name. *)
let locate_term text (t : Term.t) =
  match locate text (Term.qualified t) with
  | Some s -> Some s
  | None -> locate text t.Term.name

(* Rules print as "[name] lhs => rhs", so the name is the anchor. *)
let locate_rule text (r : Rule.t) = locate text r.Rule.name

(* ------------------------------------------------------------------ *)
(* Enabled-code configuration fingerprints                            *)
(* ------------------------------------------------------------------ *)

(* Every pass memo folds the enabled-code set into its key: a warm
   cache primed under one --disable configuration must never answer a
   run under another (the computed sets genuinely differ, because
   disabled codes are skipped at compute time, not post-filtered). *)
let cfg_fingerprint = function
  | None -> "*"
  | Some codes -> String.concat "," (List.sort_uniq String.compare codes)

let config_fingerprint = cfg_fingerprint

let code_wanted enabled code =
  match enabled with None -> true | Some codes -> List.mem code codes

let keep_enabled enabled diags =
  match enabled with
  | None -> diags
  | Some codes ->
      List.filter (fun (d : Diagnostic.t) -> List.mem d.Diagnostic.code codes) diags

(* ------------------------------------------------------------------ *)
(* Revision-stamped pass memos                                        *)
(* ------------------------------------------------------------------ *)

(* Keyed on Revision stamps (equal stamps imply the very same parsed
   value, hence the same source text) plus the enabled-code fingerprint
   and the file attribution, so a re-lint of unchanged parts answers
   from the table.  All caches honour Cache_stats.enabled and are
   domain-safe for the pool fan-out.

   The articulation-scoped passes (conflict / rules / bridges) also read
   every source, but key on a {e scope stamp} instead of the raw source
   revision list: the stamp is bumped when the sources changed in a way
   the pass can observe (or in an unknown way), and retained when the
   impact analysis certifies the change invisible — which is how those
   memo entries survive local edits elsewhere in the workspace. *)
(* Consistency entries keep the raw issues next to the diagnostics: an
   edited part re-derives from its previous issues ([Consistency.recheck]). *)
let consistency_memo :
    ( int * string * string option,
      Consistency.issue list * Diagnostic.t list )
    Lru.t =
  Lru.create ~name:"lint.consistency" ~capacity:256 ()

let conflict_memo : (int * int * string * string option, Diagnostic.t list) Lru.t
    =
  Lru.create ~name:"lint.conflict" ~capacity:256 ()

let rules_memo : (int * int * string * string option, Diagnostic.t list) Lru.t =
  Lru.create ~name:"lint.rules" ~capacity:256 ()

let bridges_memo : (int * int * string * string option, Diagnostic.t list) Lru.t
    =
  Lru.create ~name:"lint.bridges" ~capacity:256 ()

let horn_memo : (int * string * string option, Diagnostic.t list) Lru.t =
  Lru.create ~name:"lint.horn" ~capacity:256 ()

let source_revisions v =
  List.map (fun s -> Ontology.revision s.ontology) v.sources

(* ------------------------------------------------------------------ *)
(* Scope stamps                                                       *)
(* ------------------------------------------------------------------ *)

(* One monotone stamp per (pass, articulation) scope, with the source
   revision list it was last validated against.  Three transitions:

   - [`Unknown] (the cold driver): same revisions -> same stamp (memo
     hits); different revisions -> fresh stamp (recompute).
   - [`Unaffected] (incremental, impact analysis proved the delta
     invisible to this scope): the stamp is retained and the stored
     revisions are refreshed, so both this incremental run and any later
     cold run over the same view answer from the existing memo entry.
   - [`Affected]: fresh stamp, forced recompute.

   Stamps are process-monotone and never reused, so a key can never
   alias a stale entry.  Scopes are keyed by (pass, articulation
   revision, articulation name): two workspaces sharing one articulation
   value still track their own source lists per articulation revision. *)
type scope_status = Affected | Unaffected | Unknown

let scope_mutex = Mutex.create ()
let scope_counter = ref 0

let scope_tbl : (string * int * string, int * int list) Hashtbl.t =
  Hashtbl.create 64

let scope_stamp ~pass ~art_rev ~scope ~revs status =
  Mutex.lock scope_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock scope_mutex)
    (fun () ->
      let key = (pass, art_rev, scope) in
      let fresh () =
        incr scope_counter;
        Hashtbl.replace scope_tbl key (!scope_counter, revs);
        !scope_counter
      in
      match (Hashtbl.find_opt scope_tbl key, status) with
      | Some (stamp, stored), Unknown when stored = revs -> stamp
      | Some (stamp, _), Unaffected ->
          Hashtbl.replace scope_tbl key (stamp, revs);
          stamp
      | (Some _ | None), _ -> fresh ())

(* ------------------------------------------------------------------ *)
(* consistency: the per-ontology point checker, with provenance       *)
(* ------------------------------------------------------------------ *)

(* Sources and articulation ontologies are checked alike. *)
let ontology_parts v =
  List.map (fun s -> (s.ontology, s.file, s.text)) v.sources
  @ List.map
      (fun a -> (Articulation.ontology a.articulation, a.art_file, a.art_text))
      v.articulations

(* Per-part cost estimates for the pool's fan-out gate: each lint pass
   walks its part's graph a small constant number of times (closures,
   SCCs, per-edge point checks), so work scales with terms + edges.
   Small workspaces — where domain spawns cost more than the passes —
   stay sequential. *)
let lint_cost_per_elem = 20.0

let ontology_elems o = Ontology.nb_terms o + Ontology.nb_relationships o

let parts_cost parts =
  match parts with
  | [] -> 0.0
  | _ ->
      let total =
        List.fold_left (fun acc (o, _, _) -> acc + ontology_elems o) 0 parts
      in
      lint_cost_per_elem *. float_of_int total
      /. float_of_int (List.length parts)

(* The sources an articulation's rules name.  Implication graphs are
   built over qualified terms ("onto:name"), and ontology names contain
   no ':', so a source's nodes can coincide with a rule term only when
   the source is named by the part of the term's ontology before its
   first ':' (the whole name in every well-formed term). *)
let named_ontologies a =
  Articulation.rules a.articulation
  |> List.concat_map Rule.terms
  |> List.map (fun (t : Term.t) ->
         List.hd (String.split_on_char ':' t.Term.ontology))
  |> List.sort_uniq String.compare

let named_sources v a =
  let names = named_ontologies a in
  List.filter (fun s -> List.mem (Ontology.name s.ontology) names) v.sources

(* The articulation-centric passes read the sources their rules name. *)
let articulation_item_cost v =
  match v.articulations with
  | [] -> 0.0
  | arts ->
      let elems a =
        List.fold_left
          (fun acc s -> acc + ontology_elems s.ontology)
          1 (named_sources v a)
      in
      lint_cost_per_elem
      *. float_of_int (List.fold_left (fun acc a -> acc + elems a) 0 arts)
      /. float_of_int (List.length arts)

(* [prior o] is [Some (before, before_file, delta)] when [o] is an edited
   part on the incremental path: its pre-edit value, that value's file
   attribution and a delta covering the edit.  The part then re-derives
   from the memoized issues of [before] instead of re-checking whole. *)
let consistency_pass ~enabled ~cfg ~prior v =
  Domain_pool.concat_map ~cost:(parts_cost (ontology_parts v))
    (fun (o, file, text) ->
      snd
      @@ Lru.find_or_compute consistency_memo (Ontology.revision o, cfg, file)
           (fun () ->
             let issues =
               match prior o with
               | Some (before, before_file, delta) -> (
                   match
                     Lru.find_opt consistency_memo
                       (Ontology.revision before, cfg, before_file)
                   with
                   | Some (previous, _) ->
                       Consistency.recheck ~strict:true ~before ~previous ~delta
                         o
                   | None -> Consistency.check ~strict:true o)
               | None -> Consistency.check ~strict:true o
             in
             ( issues,
               List.map
                 (fun (i : Consistency.issue) ->
                   Diagnostic.v
                     ~severity:
                       (match i.Consistency.severity with
                       | Consistency.Error -> Diagnostic.Error
                       | Consistency.Warning -> Diagnostic.Warning)
                     ?file
                     ?span:(locate_subject text i.Consistency.subject)
                     ~subject:i.Consistency.subject ~code:i.Consistency.code
                     ~pass:"consistency" i.Consistency.message)
                 issues
               |> keep_enabled enabled )))
    (ontology_parts v)

(* ------------------------------------------------------------------ *)
(* conflict: the per-rule-set point checker, with provenance          *)
(* ------------------------------------------------------------------ *)

let conflict_pass ~enabled ~cfg ~affect v =
  let revs = source_revisions v in
  Domain_pool.concat_map ~cost:(articulation_item_cost v)
    (fun a ->
      let art = a.articulation in
      let stamp =
        scope_stamp ~pass:"conflict" ~art_rev:(Articulation.revision art)
          ~scope:(Articulation.name art) ~revs
          (affect ~pass:"conflict" ~scope:(Articulation.name art))
      in
      Lru.find_or_compute conflict_memo
        (Articulation.revision art, stamp, cfg, a.art_file)
        (fun () ->
          (* The conversion-registry checks are the conversions pass's
             job (multi-probe, inverse coverage), so the point checker
             runs without a registry here. *)
          let ontologies = List.map (fun s -> s.ontology) (named_sources v a) in
          Conflict.check ~ontologies (Articulation.rules art)
          |> List.map (fun (cf : Conflict.conflict) ->
                 let span =
                   match cf.Conflict.rules_involved with
                   | rule :: _ when locate a.art_text rule <> None ->
                       locate a.art_text rule
                   | _ -> locate_subject a.art_text cf.Conflict.subject
                 in
                 Diagnostic.v
                   ~severity:
                     (match cf.Conflict.severity with
                     | Conflict.Fatal -> Diagnostic.Error
                     | Conflict.Suspicious -> Diagnostic.Warning)
                   ?file:a.art_file ?span ~subject:cf.Conflict.subject
                   ~related:cf.Conflict.rules_involved ~code:cf.Conflict.code
                   ~pass:"conflict" cf.Conflict.detail)
          |> keep_enabled enabled))
    v.articulations

(* ------------------------------------------------------------------ *)
(* rules: dead patterns, inert variables, shadowed rules              *)
(* ------------------------------------------------------------------ *)

let rec patterns_of_operand = function
  | Rule.Term _ -> []
  | Rule.Conj ops | Rule.Disj ops -> List.concat_map patterns_of_operand ops
  | Rule.Patt p -> [ p ]

let rule_patterns (r : Rule.t) =
  match r.Rule.body with
  | Rule.Implication (lhs, rhs) ->
      patterns_of_operand lhs @ patterns_of_operand rhs
  | Rule.Functional _ | Rule.Disjoint _ -> []

(* Label/degree feasibility of a pattern against one source's index:
   every labeled pattern node must exist, every labeled pattern edge's
   label must occur, and each labeled node must offer the in/out degree
   its incident pattern edges demand.  Sound for the generator's exact
   matching policy (node identity and label coincide in consistent
   ontologies). *)
let pattern_feasible_in idx p =
  let nodes = Pattern.nodes p and edges = Pattern.edges p in
  let node_ok (n : Pattern.node) =
    match n.Pattern.label with
    | None -> true
    | Some l -> Label_index.mem_label idx l
  in
  let edge_ok (e : Pattern.edge) =
    match e.Pattern.elabel with
    | None -> true
    | Some l -> Label_index.edges_with idx l <> []
  in
  let degree_ok (n : Pattern.node) =
    match n.Pattern.label with
    | None -> true
    | Some l ->
        let outs =
          List.filter
            (fun (e : Pattern.edge) -> String.equal e.Pattern.src n.Pattern.id)
            edges
        and ins =
          List.filter
            (fun (e : Pattern.edge) -> String.equal e.Pattern.dst n.Pattern.id)
            edges
        in
        let demand dir_edges degree_fn =
          List.for_all
            (fun (e : Pattern.edge) ->
              match e.Pattern.elabel with
              | None -> true
              | Some el ->
                  let wanted =
                    List.length
                      (List.filter
                         (fun (e2 : Pattern.edge) ->
                           e2.Pattern.elabel = Some el)
                         dir_edges)
                  in
                  degree_fn idx l el >= wanted)
            dir_edges
        in
        Label_index.out_degree idx l >= List.length outs
        && Label_index.in_degree idx l >= List.length ins
        && demand outs Label_index.out_label_degree
        && demand ins Label_index.in_label_degree
  in
  List.for_all node_ok nodes
  && List.for_all edge_ok edges
  && List.for_all degree_ok nodes

let dead_rule_diags v a =
  let sources = v.sources in
  List.concat_map
    (fun (r : Rule.t) ->
      List.filter_map
        (fun p ->
          let candidates =
            match Pattern.ontology_hint p with
            | Some hint ->
                List.filter
                  (fun s -> String.equal (Ontology.name s.ontology) hint)
                  sources
            | None -> sources
          in
          (* A hint naming no loaded source (e.g. the articulation
             ontology itself) is outside this workspace's jurisdiction. *)
          if candidates = [] then None
          else if
            List.exists
              (fun s ->
                pattern_feasible_in
                  (Label_index.of_graph (Ontology.graph s.ontology))
                  p)
              candidates
          then None
          else
            Some
              (Diagnostic.v ?file:a.art_file
                 ?span:(locate_rule a.art_text r)
                 ~subject:r.Rule.name ~related:[ r.Rule.name ]
                 ~code:"dead-rule" ~pass:"rules"
                 (Printf.sprintf
                    "pattern %s cannot match any loaded source: its \
                     label/degree signature has no counterpart"
                    (Pattern_parser.to_string p))))
        (rule_patterns r))
    (Articulation.rules a.articulation)

(* The generator bridges only the representative (first) node of a
   pattern operand, so a variable bound anywhere else can never reach
   the articulation: flag it as inert. *)
let one_sided_variable_diags a =
  List.concat_map
    (fun (r : Rule.t) ->
      List.concat_map
        (fun p ->
          match Pattern.nodes p with
          | [] -> []
          | representative :: rest ->
              List.filter_map
                (fun (n : Pattern.node) ->
                  match n.Pattern.binder with
                  | Some var ->
                      Some
                        (Diagnostic.v ?file:a.art_file
                           ?span:(locate a.art_text var)
                           ~subject:var ~related:[ r.Rule.name ]
                           ~code:"one-sided-variable" ~pass:"rules"
                           (Printf.sprintf
                              "variable %s binds pattern node %s, not the \
                               representative %s; its binding cannot reach \
                               the generated articulation"
                              var n.Pattern.id representative.Pattern.id))
                  | None -> None)
                rest)
        (rule_patterns r))
    (Articulation.rules a.articulation)

(* Structural embedding of p1 into p2: every label constraint of p1
   appears in p2 (nodes by label; edges by (src-label, label, dst-label)
   for fully labeled edges).  Then every match of p2 contains a match of
   p1, so with equal right-hand sides the p2 rule is subsumed. *)
let pattern_embeds p1 p2 =
  let labels p =
    List.filter_map (fun (n : Pattern.node) -> n.Pattern.label) (Pattern.nodes p)
  in
  let label_of p id =
    Option.bind (Pattern.node_by_id p id) (fun n -> n.Pattern.label)
  in
  let triples p =
    List.filter_map
      (fun (e : Pattern.edge) ->
        match (label_of p e.Pattern.src, label_of p e.Pattern.dst) with
        | Some a, Some b -> Some (a, e.Pattern.elabel, b)
        | _ -> None)
      (Pattern.edges p)
  in
  let hint_ok =
    match (Pattern.ontology_hint p1, Pattern.ontology_hint p2) with
    | None, _ -> true
    | Some h1, Some h2 -> String.equal h1 h2
    | Some _, None -> false
  in
  hint_ok
  && Pattern.size p1 <= Pattern.size p2
  && List.for_all (fun l -> List.mem l (labels p2)) (labels p1)
  && List.for_all (fun t -> List.mem t (triples p2)) (triples p1)

let shadowed_rule_diags v a =
  let rules = Articulation.rules a.articulation in
  (* Implication graph over qualified terms: the taxonomy of the named
     sources + every atomic Term => Term rule. *)
  let base =
    List.fold_left
      (fun g s ->
        Digraph.fold_edges
          (fun (e : Digraph.edge) g ->
            if
              String.equal e.Digraph.label Rel.subclass_of
              || String.equal e.Digraph.label Rel.semantic_implication
            then Digraph.add_edge g e.Digraph.src "implies" e.Digraph.dst
            else g)
          (Ontology.qualify s.ontology) g)
      Digraph.empty (named_sources v a)
  in
  let term_rules =
    List.filter_map
      (fun (r : Rule.t) ->
        match r.Rule.body with
        | Rule.Implication (Rule.Term lhs, Rule.Term rhs)
          when not (Term.equal lhs rhs) ->
            Some (r, Term.qualified lhs, Term.qualified rhs)
        | _ -> None)
      rules
  in
  let full =
    List.fold_left
      (fun g (_, qa, qb) -> Digraph.add_edge g qa "implies" qb)
      base term_rules
  in
  let reach_shadowed =
    List.filter_map
      (fun ((r : Rule.t), qa, qb) ->
        (* Drop the rule's own direct edge (shared duplicates are the
           duplicate-rule code's business) and ask whether the network
           still derives it. *)
        let without = Digraph.remove_edge full qa "implies" qb in
        if Traversal.path_exists without qa qb then
          Some
            (Diagnostic.v ?file:a.art_file
               ?span:(locate_rule a.art_text r)
               ~subject:r.Rule.name ~related:[ r.Rule.name ]
               ~code:"shadowed-rule" ~pass:"rules"
               (Printf.sprintf
                  "%s => %s is already derivable from the taxonomy and the \
                   remaining rules"
                  qa qb))
        else None)
      term_rules
  in
  let patt_rules =
    List.filter_map
      (fun (r : Rule.t) ->
        match r.Rule.body with
        | Rule.Implication (Rule.Patt p, rhs) -> Some (r, p, rhs)
        | _ -> None)
      rules
  in
  let embed_shadowed =
    List.concat_map
      (fun ((r2 : Rule.t), p2, rhs2) ->
        List.filter_map
          (fun ((r1 : Rule.t), p1, rhs1) ->
            if
              (not (String.equal r1.Rule.name r2.Rule.name))
              && rhs1 = rhs2
              && pattern_embeds p1 p2
              && ((not (pattern_embeds p2 p1))
                 || String.compare r1.Rule.name r2.Rule.name < 0)
            then
              Some
                (Diagnostic.v ?file:a.art_file
                   ?span:(locate_rule a.art_text r2)
                   ~subject:r2.Rule.name
                   ~related:[ r1.Rule.name; r2.Rule.name ]
                   ~code:"shadowed-rule" ~pass:"rules"
                   (Printf.sprintf
                      "rule %s's pattern embeds in this rule's pattern with \
                       the same right-hand side"
                      r1.Rule.name))
            else None)
          patt_rules)
      patt_rules
  in
  reach_shadowed @ embed_shadowed

let rules_pass ~enabled ~cfg ~affect v =
  let revs = source_revisions v in
  Domain_pool.concat_map ~cost:(articulation_item_cost v)
    (fun a ->
      let art_rev = Articulation.revision a.articulation in
      let scope = Articulation.name a.articulation in
      let stamp =
        scope_stamp ~pass:"rules" ~art_rev ~scope ~revs
          (affect ~pass:"rules" ~scope)
      in
      Lru.find_or_compute rules_memo (art_rev, stamp, cfg, a.art_file)
        (fun () ->
          (* Disabled codes are skipped at compute time — the dead-rule
             feasibility scan in particular walks every source index, so
             a --disable dead-rule run must not pay for it. *)
          (if code_wanted enabled "dead-rule" then dead_rule_diags v a else [])
          @ (if code_wanted enabled "one-sided-variable" then
               one_sided_variable_diags a
             else [])
          @
          if code_wanted enabled "shadowed-rule" then shadowed_rule_diags v a
          else []))
    v.articulations

(* ------------------------------------------------------------------ *)
(* bridges: dangling endpoints                                        *)
(* ------------------------------------------------------------------ *)

let bridges_pass ~enabled ~cfg ~affect v =
  let revs = source_revisions v in
  let find_source name =
    List.find_opt
      (fun s -> String.equal (Ontology.name s.ontology) name)
      v.sources
  in
  Domain_pool.concat_map ~cost:(articulation_item_cost v)
    (fun a ->
      let art = a.articulation in
      let stamp =
        scope_stamp ~pass:"bridges" ~art_rev:(Articulation.revision art)
          ~scope:(Articulation.name art) ~revs
          (affect ~pass:"bridges" ~scope:(Articulation.name art))
      in
      Lru.find_or_compute bridges_memo
        (Articulation.revision art, stamp, cfg, a.art_file)
        (fun () ->
          if not (code_wanted enabled "dangling-bridge") then []
          else
          let art_name = Articulation.name art in
          List.concat_map
            (fun (b : Bridge.t) ->
              List.filter_map
                (fun (t : Term.t) ->
                  if String.equal t.Term.ontology art_name then None
                  else
                    match find_source t.Term.ontology with
                    | None -> None (* not a workspace source: cannot judge *)
                    | Some s ->
                        if Ontology.has_term s.ontology t.Term.name then None
                        else
                          Some
                            (Diagnostic.v ?file:a.art_file
                               ?span:(locate_term a.art_text t)
                               ~subject:(Term.qualified t)
                               ~code:"dangling-bridge" ~pass:"bridges"
                               (Printf.sprintf
                                  "bridge endpoint %s names a term %s no \
                                   longer has"
                                  (Term.qualified t) t.Term.ontology)))
                [ b.Bridge.src; b.Bridge.dst ])
            (Articulation.bridges art)))
    v.articulations

(* ------------------------------------------------------------------ *)
(* horn: stratification of the relation-property rule sets            *)
(* ------------------------------------------------------------------ *)

(* Compile each part's relation registry to its Horn rules and look for
   derivation cycles across distinct relations (mutual Implies chains):
   evaluation still terminates — Datalog has no negation — but the
   fixpoint equates the relations, which is virtually always a
   declaration slip.  Declared inverse pairs are exempt: flowing both
   ways is their meaning. *)
let horn_diags o file text =
  let registry = Ontology.relations o in
  let horns = Infer.of_registry registry in
  let deps =
    List.concat_map
      (fun (h : Infer.horn) ->
        List.filter_map
          (fun (b : Infer.atom) ->
            if String.equal b.Infer.rel h.Infer.head.Infer.rel then None
            else Some (b.Infer.rel, h.Infer.head.Infer.rel))
          h.Infer.body)
      horns
  in
  let inverse_pair a b =
    Rel.has_property registry a (Rel.Inverse_of b)
    || Rel.has_property registry b (Rel.Inverse_of a)
  in
  let g =
    List.fold_left
      (fun g (a, b) ->
        if inverse_pair a b then g else Digraph.add_edge g a "dep" b)
      Digraph.empty deps
  in
  Traversal.strongly_connected_components ~follow:(Traversal.only [ "dep" ]) g
  |> List.filter (fun scc -> List.length scc > 1)
  |> List.map (fun scc ->
         let subject = String.concat ", " scc in
         Diagnostic.v ?file
           ?span:(locate_subject text subject)
           ~subject ~code:"unstratified-horn" ~pass:"horn"
           (Printf.sprintf
              "relation properties derive a cycle over %s: the Horn fixpoint \
               equates these relations"
              subject))

let horn_pass ~enabled ~cfg v =
  Domain_pool.concat_map ~cost:(parts_cost (ontology_parts v))
    (fun (o, file, text) ->
      Lru.find_or_compute horn_memo (Ontology.revision o, cfg, file) (fun () ->
          if code_wanted enabled "unstratified-horn" then horn_diags o file text
          else []))
    (ontology_parts v)

(* ------------------------------------------------------------------ *)
(* conversions: registry coverage and round-trips                     *)
(* ------------------------------------------------------------------ *)

let probe_values = [ 1.0; 100.0; 12345.678 ]

let conversions_pass ~enabled v =
  keep_enabled enabled
  @@
  match v.conversions with
  | None -> []
  | Some registry ->
      List.concat_map
        (fun a ->
          Articulation.rules a.articulation
          |> List.filter_map (fun (r : Rule.t) ->
                 match r.Rule.body with
                 | Rule.Functional { fn; src; dst } -> Some (r, fn, src, dst)
                 | Rule.Implication _ | Rule.Disjoint _ -> None)
          |> List.filter_map (fun ((r : Rule.t), fn, src, dst) ->
                 let pair =
                   Term.qualified src ^ " => " ^ Term.qualified dst
                 in
                 let span =
                   match locate a.art_text fn with
                   | Some s -> Some s
                   | None -> locate_rule a.art_text r
                 in
                 if not (Conversion.mem registry fn) then
                   Some
                     (Diagnostic.v ?file:a.art_file ?span ~subject:fn
                        ~related:[ r.Rule.name ] ~code:"unknown-converter"
                        ~pass:"conversions"
                        (Printf.sprintf
                           "function %s (bridging %s) is not registered" fn
                           pair))
                 else
                   match Conversion.inverse_name registry fn with
                   | None ->
                       Some
                         (Diagnostic.v ?file:a.art_file ?span ~subject:fn
                            ~related:[ r.Rule.name ] ~code:"missing-inverse"
                            ~pass:"conversions"
                            (Printf.sprintf
                               "%s declares no inverse: values bridged over \
                                %s cannot travel back"
                               fn pair))
                   | Some _ ->
                       let drift =
                         List.fold_left
                           (fun acc probe ->
                             match
                               Conversion.roundtrip_error registry fn
                                 (Conversion.Num probe)
                             with
                             | Some err -> Float.max acc err
                             | None -> acc)
                           0.0 probe_values
                       in
                       if drift > 1e-6 then
                         Some
                           (Diagnostic.v ?file:a.art_file ?span ~subject:fn
                              ~related:[ r.Rule.name ] ~code:"roundtrip-drift"
                              ~pass:"conversions"
                              (Printf.sprintf
                                 "declared inverse drifts by %.2e across \
                                  probe values"
                                 drift))
                       else None))
        v.articulations

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let drive ~enabled ~affect ~prior v =
  let cfg = cfg_fingerprint enabled in
  let timings = ref [] in
  let timed pass f =
    let t0 = Unix.gettimeofday () in
    let result = f v in
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    timings := { pass; ns } :: !timings;
    result
  in
  (* Explicit lets: list elements evaluate right-to-left, which would
     invert the pass order (and the timings). *)
  let consistency = timed "consistency" (consistency_pass ~enabled ~cfg ~prior) in
  let conflict = timed "conflict" (conflict_pass ~enabled ~cfg ~affect) in
  let rules = timed "rules" (rules_pass ~enabled ~cfg ~affect) in
  let bridges = timed "bridges" (bridges_pass ~enabled ~cfg ~affect) in
  let horn = timed "horn" (horn_pass ~enabled ~cfg) in
  let conversions = timed "conversions" (conversions_pass ~enabled) in
  let diagnostics =
    List.concat [ consistency; conflict; rules; bridges; horn; conversions ]
  in
  {
    diagnostics = List.stable_sort Diagnostic.order diagnostics;
    timings = List.rev !timings;
  }

let unknown ~pass:_ ~scope:_ = Unknown

let run ?enabled v = drive ~enabled ~affect:unknown ~prior:(fun _ -> None) v

(* ------------------------------------------------------------------ *)
(* Impact analysis                                                    *)
(* ------------------------------------------------------------------ *)

(* Which (pass x articulation) cells can observe a source delta.  Every
   trigger is a superset of the pass's true read footprint, so a scope
   judged Unaffected provably yields byte-identical diagnostics (the
   qcheck equivalence harness exercises this against cold runs):

   - conflict: the checker reads the qualified subclass-of /
     semantic-implication edges of the sources the articulation's rules
     name (implication paths may route through terms no rule names),
     plus the existence of each rule term inside its attributed source.
   - rules: dead-rule feasibility reads label existence, per-label edge
     buckets and the degrees of pattern-labeled nodes — degrees only
     change at touched nodes, buckets only for touched labels; shadowed
     rules additionally read the taxonomy edges of the named sources;
     one-sided-variable reads no source at all.
   - bridges: dangling-bridge only observes node existence in the
     endpoint's attributed source.

   Why the named sources suffice: in both implication graphs (the
   conflict checker's and the shadowed-rule pass's) every edge joins two
   nodes qualified with the same source name, except the rule edges,
   which join rule terms.  Source names contain no ':', so the nodes of a
   source no rule names never coincide with a rule term: such a source
   is a set of components disconnected from every rule term.  It can
   reach no rule term, so its nodes never become a disjoint-overlap
   subject and never lie on a path between two rule terms — dropping it
   changes no finding.  A taxonomy edit in it is therefore invisible to
   the articulation; one in a named source is not (e.g. a fresh leaf
   under a concept that implies both sides of a Disjoint rule is a new
   disjoint-overlap subject).

   Consistency and horn need no triggers: their memos key on the part's
   own revision, so the edited part recomputes (consistency only the
   checks the delta can reach, see [consistency_pass]) and every other
   part answers from its table entry. *)
let tax_label l =
  String.equal l Rel.subclass_of || String.equal l Rel.semantic_implication

let impact_of ~delta ~changed v =
  let tax_changed = List.exists (tax_label) (Delta.edge_labels delta) in
  let in_changed name = List.mem name changed in
  let touched_term (t : Term.t) =
    in_changed t.Term.ontology && Delta.touches_node delta t.Term.name
  in
  let tax_seen a = tax_changed && List.exists in_changed (named_ontologies a) in
  let conflict_affected a =
    tax_seen a
    || List.exists
         (fun (r : Rule.t) -> List.exists touched_term (Rule.terms r))
         (Articulation.rules a.articulation)
  in
  let rules_affected a =
    tax_seen a
    || List.exists
         (fun (r : Rule.t) ->
           List.exists
             (fun p ->
               List.exists
                 (fun (n : Pattern.node) ->
                   match n.Pattern.label with
                   | Some l -> Delta.touches_node delta l
                   | None -> false)
                 (Pattern.nodes p)
               || List.exists
                    (fun (e : Pattern.edge) ->
                      match e.Pattern.elabel with
                      | Some l -> Delta.touches_label delta l
                      | None -> false)
                    (Pattern.edges p))
             (rule_patterns r))
         (Articulation.rules a.articulation)
  in
  let bridges_affected a =
    List.exists
      (fun (b : Bridge.t) ->
        List.exists
          (fun (t : Term.t) ->
            in_changed t.Term.ontology && Delta.changes_node_set delta t.Term.name)
          [ b.Bridge.src; b.Bridge.dst ])
      (Articulation.bridges a.articulation)
  in
  List.map
    (fun a ->
      let scope = Articulation.name a.articulation in
      ( scope,
        [
          ("conflict", conflict_affected a);
          ("rules", rules_affected a);
          ("bridges", bridges_affected a);
        ] ))
    v.articulations

let lint_incremental ?enabled ~previous ~delta ~changed v =
  let impact = impact_of ~delta ~changed v in
  let edited =
    List.filter_map
      (fun s ->
        let name = Ontology.name s.ontology in
        if not (List.mem name changed) then None
        else
          List.find_opt
            (fun p -> String.equal (Ontology.name p.ontology) name)
            previous.sources
          |> Option.map (fun p -> (s.ontology, (p.ontology, p.file, delta))))
      v.sources
  in
  let prior o = List.assq_opt o edited in
  let affect ~pass ~scope =
    match List.assoc_opt scope impact with
    | None -> Unknown
    | Some cells -> (
        match List.assoc_opt pass cells with
        | Some true -> Affected
        | Some false -> Unaffected
        | None -> Unknown)
  in
  (* Plan accounting: one cell per (pass x articulation) for the
     articulation passes, one per (pass x part) for consistency / horn
     (the edited parts recompute, everything else answers from its
     revision memo), and one per articulation for conversions — which
     reads no source and is recomputed, never spliced, because it is
     cheap and unmemoized. *)
  let art_cells = List.concat_map (fun (_, cells) -> List.map snd cells) impact in
  let rerun_cells = List.length (List.filter Fun.id art_cells) in
  let skipped_cells = List.length art_cells - rerun_cells in
  let parts = ontology_parts v in
  let part_rerun, part_skipped =
    List.fold_left
      (fun (r, s) (o, _, _) ->
        if List.mem (Ontology.name o) changed then (r + 2, s) else (r, s + 2))
      (0, 0) parts
  in
  let conv_cells =
    match v.conversions with None -> 0 | Some _ -> List.length v.articulations
  in
  Cache_stats.record_plans "delta.ops" (Delta.ops delta);
  Cache_stats.record_plans "delta.passes_rerun"
    (rerun_cells + part_rerun + conv_cells);
  Cache_stats.record_plans "delta.passes_skipped" (skipped_cells + part_skipped);
  drive ~enabled ~affect ~prior v

(* ------------------------------------------------------------------ *)
(* Report document                                                    *)
(* ------------------------------------------------------------------ *)

let report_json ?(suppressed = 0) ~diagnostics ~timings () =
  let open Diagnostic.Json in
  let rules =
    List.map
      (fun (ck : Diagnostic.check) ->
        obj
          [
            ("id", str ck.Diagnostic.check_code);
            ( "shortDescription",
              obj [ ("text", str ck.Diagnostic.summary) ] );
            ( "defaultConfiguration",
              obj
                [
                  ( "level",
                    str
                      (match ck.Diagnostic.default_severity with
                      | Diagnostic.Error -> "error"
                      | Diagnostic.Warning -> "warning") );
                  ("enabled", string_of_bool ck.Diagnostic.default_enabled);
                ] );
            ("pass", str ck.Diagnostic.check_pass);
          ])
      Diagnostic.catalog
  in
  let run_obj =
    obj
      [
        ( "tool",
          obj
            [
              ( "driver",
                obj
                  [
                    ("name", str "onion lint");
                    ("rules", arr rules);
                  ] );
            ] );
        ("results", arr (List.map Diagnostic.to_json diagnostics));
      ]
  in
  obj
    [
      ("version", str "2.1.0");
      ("runs", arr [ run_obj ]);
      ( "summary",
        obj
          [
            ("errors", string_of_int (List.length (Diagnostic.errors diagnostics)));
            ( "warnings",
              string_of_int (List.length (Diagnostic.warnings diagnostics)) );
            ("suppressed", string_of_int suppressed);
            ("exit_code", string_of_int (Diagnostic.exit_code diagnostics));
          ] );
      ( "timings",
        arr
          (List.map
             (fun t ->
               obj [ ("pass", str t.pass); ("ns", string_of_int t.ns) ])
             timings) );
    ]
  ^ "\n"
