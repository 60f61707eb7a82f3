(* The measuring program of the repository benchmark.

     onion_perf gen --workload W --seed N --dir D [--size full|tiny]
     onion_perf run --workload W --dir D --seconds S --trace 0|1 [--size ...]

   [gen] writes the workload's seeded inputs under D (the workspace in
   D/ws, the query stream in D/queries.txt, the unedited sources in
   D/originals) and prints how long that took.  [run] opens them, warms
   up, measures whole rounds of operations for S seconds, checks the
   answers against references computed apart from the timed path, and
   prints one JSON object: see Measure.to_json.  perfbench/run.py drives
   both and prints the benchmark's result line.  Exit status 1 means a
   correctness check failed. *)

open Measure

let ok what = Inputs.ok what
let ( / ) = Filename.concat
let ms x = x *. 1000.0

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                      *)
(* ------------------------------------------------------------------ *)

(* The knowledge bases and mediator environment over a space, built the
   way the CLI and the daemon build them. *)
let env_of (space : Federation.t) =
  let kbs =
    List.map
      (fun o -> Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
      space.Federation.sources
  in
  Mediator.env_federated ~kbs ~space ()

let render report = Format.asprintf "%a" Mediator.pp_report report ^ "\n"

(* The answer proper of a report: tuples and aggregates. *)
let answer (rep : Mediator.report) = (rep.Mediator.tuples, rep.Mediator.aggregates)

(* Every returned tuple satisfies every WHERE predicate. *)
let where_holds text (rep : Mediator.report) =
  match Query.parse ~default_ontology:(Inputs.art_name 0) text with
  | Error _ -> false
  | Ok q ->
      List.for_all
        (fun t ->
          List.for_all
            (fun (p : Query.predicate) ->
              match Mediator.tuple_value t p.Query.attr with
              | Some v -> Query.holds p v
              | None -> false)
            q.Query.where)
        rep.Mediator.tuples

(* Run whole rounds until [seconds] of measured time have passed.
   Returns the measured time and where every [per_chunk] rounds ended,
   as indexes into [lat].  [paused] is time spent on checks inside the
   window, which the window does not count. *)
let run_rounds ~seconds ~paused ~per_chunk lat round =
  let t0 = now () in
  let ends = ref [] in
  let rec go k =
    round ();
    if k mod per_chunk = 0 then ends := count lat :: !ends;
    if now () -. t0 -. !paused < seconds then go (k + 1)
  in
  go 1;
  (now () -. t0 -. !paused, List.rev !ends)

let cache_counts name =
  match Cache_stats.get name with
  | Some s -> (s.Cache_stats.hits, s.Cache_stats.misses)
  | None -> (0, 0)

let plan_count name =
  Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))

(* The end-to-end metrics every workload reports.  Throughput and the
   median are taken over the whole window.  The tail is the median, over
   the window's chunks of whole rounds, of each chunk's [tail]
   percentile, which is fixed per workload so that a chunk has at least
   ten samples beyond it: the host the benchmark was built on slows down
   for a second or two now and then, and one such stretch moves a whole
   window's tail but only one chunk's.  A run too short for one chunk
   takes the whole window as its chunk. *)
let end_to_end r ~tail ~elapsed ~ends lat =
  let all = sorted_slice lat 0 (count lat) in
  let chunks =
    match ends with
    | [] -> [ all ]
    | _ ->
        List.rev
          (snd
             (List.fold_left
                (fun (first, acc) last -> (last, sorted_slice lat first last :: acc))
                (0, []) ends))
  in
  let tails = List.map (fun c -> quantile c tail) chunks |> Array.of_list in
  Array.sort Float.compare tails;
  let n = Array.length tails in
  let h = Int.div n 2 in
  let p = if n mod 2 = 1 then tails.(h) else (tails.(h - 1) +. tails.(h)) /. 2.0 in
  metric r "ops_per_s" "1/s" (float_of_int (count lat) /. elapsed);
  metric r "op_p50_ms" "ms" (ms (quantile all 0.5));
  metric r "op_tail_ms" "ms" (ms p);
  metric r "peak_rss_mb" "MB" (peak_rss_mb ());
  let c = List.hd chunks in
  let q = quantile c tail in
  note r "op_tail"
    (Printf.sprintf
       "median of p%g over %d chunks; a chunk has %d samples, the first %d beyond its p%g; the \
        whole window's p%g is %.4f ms over %d samples"
       (tail *. 100.0) n (Array.length c)
       (Array.fold_left (fun k x -> if x > q then k + 1 else k) 0 c)
       (tail *. 100.0) (tail *. 100.0) (ms (quantile all tail)) (Array.length all))

(* ------------------------------------------------------------------ *)
(* query-flat: distinct generated queries through the daemon          *)
(* ------------------------------------------------------------------ *)

let query_flat (size : Inputs.size) ~dir ~seconds ~trace r =
  let t_setup = now () in
  let s = Inputs.stream (Inputs.read_lines (dir / "queries.txt")) in
  let root = dir / "ws" in
  let ws = ok "open" (Workspace.open_ root) in
  (* A relative socket path keeps it under the sun_path limit however
     deep the work directory is. *)
  Sys.chdir dir;
  let socket = "daemon.sock" in
  let config =
    { Server.default_config with Server.unix_path = Some socket; workers = Domain_pool.size () }
  in
  let server = ok "serve" (Server.create config [ ("default", ws) ]) in
  let serving = Thread.create Server.serve server in
  Fun.protect ~finally:(fun () ->
      Server.stop server;
      Thread.join serving)
  @@ fun () ->
  let client = ok "connect" (Client.connect (Client.Unix_socket socket)) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let ask text =
    match Client.request client ~op:"query" ~arg:text with
    | Ok { Protocol.status = Protocol.Ok; body; _ } -> Ok body
    | Ok { Protocol.status; body; _ } ->
        Error (Protocol.status_to_string status ^ ": " ^ body)
    | Error m -> failwith ("transport: " ^ m)
  in
  (* The in-process decomposition's environment, rebuilt only when the
     workspace's space value changes (as the daemon's per-domain memo). *)
  let env_memo = ref None in
  let env_for space =
    match !env_memo with
    | Some (sp, env) when sp == space -> env
    | _ ->
        let env = env_of space in
        env_memo := Some (space, env);
        env
  in
  let default_ontology = Workspace.default_ontology ws in
  let t_qs = samples () and t_parse = samples () and t_rw = samples () in
  let t_med = samples () and t_rep = samples () and t_codec = samples () in
  (* The path of a query the daemon has just answered, layer by layer,
     in the daemon's order.  The plan is made with caches off, so the
     rewrite is timed as the daemon paid it without touching the shared
     plan memo (the daemon is idle meanwhile); [Mediator.run] then finds
     the daemon's plan in the memo and does not count it twice. *)
  let decompose text =
    let (space, _), a = time (fun () -> ok "query_space" (Workspace.query_space ws text)) in
    let q, b = time (fun () -> ok "parse" (Query.parse ?default_ontology text)) in
    let env = env_for space in
    let conversions = env.Mediator.conversions in
    let _, c =
      time (fun () ->
          Cache_stats.with_disabled (fun () -> ok "plan" (Rewrite.plan space ~conversions q)))
    in
    let report, d = time (fun () -> ok "mediate" (Mediator.run env q)) in
    let body, e = time (fun () -> render report) in
    let (), f =
      time (fun () ->
          let req =
            Protocol.encode_request
              { Protocol.op = "query"; arg = text; deadline_ms = None; workspace = None }
          in
          ignore (Protocol.decode_request req : Protocol.request);
          ignore (Protocol.decode_reply (Protocol.encode_reply (Protocol.ok body))))
    in
    List.iter2 add [ t_qs; t_parse; t_rw; t_med; t_rep; t_codec ] [ a; b; c; d; e; f ]
  in
  (* Warm-up: two rounds through the daemon (and, traced, through the
     decomposition), so the space memo, the environments and the
     knowledge-base memos are filled before timing. *)
  for _ = 1 to 2 do
    List.iter
      (fun text ->
        ignore (ask text);
        if trace && not (String.equal text Inputs.probe) then decompose text)
      (Inputs.round size s)
  done;
  List.iter Measure.clear [ t_qs; t_parse; t_rw; t_med; t_rep; t_codec ];
  note r "warmup_s" (json_float (now () -. t_setup));
  let lat = samples () in
  let stride = 61 in
  let sampled = ref [] and bad_failures = ref [] in
  let plan_hits = ref 0 and plan_misses = ref 0 and kb_hits = ref 0 and kb_misses = ref 0 in
  let bump (h, m) (h0, m0) rh rm =
    rh := !rh + h - h0;
    rm := !rm + m - m0
  in
  let paused = ref 0.0 in
  let one text =
    let i = r.attempted in
    r.attempted <- i + 1;
    let plan0 = cache_counts "rewrite.plan" and kb0 = cache_counts "kb.instances_of" in
    let reply, dt = time (fun () -> ask text) in
    add lat dt;
    if trace then begin
      bump (cache_counts "rewrite.plan") plan0 plan_hits plan_misses;
      bump (cache_counts "kb.instances_of") kb0 kb_hits kb_misses;
      (* On a domain of its own, as the daemon runs a request on an
         admission worker domain: on the main domain the calls would
         share the runtime lock with the daemon's connection threads. *)
      if Result.is_ok reply then Domain.join (Domain.spawn (fun () -> decompose text))
    end;
    (match reply with
    | Ok _ -> ()
    | Error m ->
        r.failed <- r.failed + 1;
        if not (String.equal text Inputs.probe) then bad_failures := (text, m) :: !bad_failures);
    if i mod stride = 0 || i = size.Inputs.round_queries then sampled := (text, reply) :: !sampled
  in
  let elapsed, ends =
    run_rounds ~seconds ~paused ~per_chunk:20 lat (fun () -> List.iter one (Inputs.round size s))
  in
  if trace then begin
    let sum_p50 = List.fold_left (fun acc x -> acc +. median x) 0.0 in
    metric r "store.query_space_ms" "ms" (ms (median t_qs));
    metric r "query.parse_ms" "ms" (ms (median t_parse));
    metric r "query.rewrite_ms" "ms" (ms (median t_rw));
    metric r "query.mediate_ms" "ms" (ms (median t_med));
    metric r "query.report_ms" "ms" (ms (median t_rep));
    metric r "server.codec_ms" "ms" (ms (median t_codec));
    metric r "server.residual_ms" "ms"
      (ms (median lat -. sum_p50 [ t_qs; t_parse; t_rw; t_med; t_rep; t_codec ]));
    let ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
    metric r "cache.rewrite_plan_hit_ratio" "ratio" (ratio !plan_hits !plan_misses);
    metric r "cache.kb_instances_hit_ratio" "ratio" (ratio !kb_hits !kb_misses);
    metric r "trace.query_flat_op_p50_ms" "ms" (ms (median lat))
  end
  else end_to_end r ~tail:0.99 ~elapsed ~ends lat;
  (* Checks, after the window: each sampled reply against the mediator
     run on a freshly opened workspace with every cache off. *)
  let fresh = ok "open" (Workspace.open_ root) in
  let reference =
    Cache_stats.with_disabled (fun () ->
        let space, _ = ok "space" (Workspace.space fresh) in
        let env = env_of space in
        let default_ontology = Workspace.default_ontology fresh in
        fun text ->
          Cache_stats.with_disabled (fun () ->
              Mediator.run_text ?default_ontology env text))
  in
  let mismatched = ref 0 and where_bad = ref 0 in
  List.iter
    (fun (text, reply) ->
      match (reply, reference text) with
      | Ok body, Ok rep ->
          if not (String.equal body (render rep)) then incr mismatched;
          if not (where_holds text rep) then incr where_bad
      | Error _, Error _ -> ()
      | _ -> incr mismatched)
    !sampled;
  let n = List.length !sampled in
  check r "reply_equals_cold_reference" ~cases:n ~bad:!mismatched;
  check r "tuples_satisfy_where" ~cases:n ~bad:!where_bad;
  check r "only_keyword_probe_fails" ~cases:r.attempted ~bad:(List.length !bad_failures);
  List.iter (fun (t, m) -> Printf.eprintf "unexpected failure: %s -> %s\n" t m) !bad_failures

(* ------------------------------------------------------------------ *)
(* edit-lint: NA/ND/EA/ED primitives, each followed by lint           *)
(* ------------------------------------------------------------------ *)

let edit_lint (size : Inputs.size) ~seed ~dir ~seconds ~trace r =
  let t_setup = now () in
  let root = dir / "ws" in
  let ws = ok "open" (Workspace.open_ root) in
  let names = Workspace.source_names ws in
  let originals =
    List.map
      (fun name ->
        match Adjacency.load_file (dir / "originals" / (name ^ ".adj")) with
        | Ok g -> (name, g)
        | Error _ -> failwith ("unreadable original " ^ name))
      names
  in
  let concepts =
    List.map
      (fun n ->
        let read ext = Inputs.read_lines (dir / "originals" / (n ^ ext)) in
        (n, (read ".concepts", read ".bridged")))
      names
  in
  let model = Hashtbl.create 16 and applied = Hashtbl.create 16 in
  List.iter (fun (n, g) -> Hashtbl.replace model n g) originals;
  let rng = Prng.create seed in
  let rounds = ref 0 in
  let t_edit = samples () and t_lint = samples () and lat = samples () in
  let pass_ns = Hashtbl.create 16 in
  let io_ops = ref 0 in
  let counters = [ "delta.passes_rerun"; "delta.passes_skipped"; "delta.index_patch" ] in
  let counted = Hashtbl.create 4 in
  let paused = ref 0.0 in
  let lint_checked = ref 0 and lint_bad = ref 0 and disk_checked = ref 0 and disk_bad = ref 0 in
  let ops = ref 0 in
  let one name op =
    let before = if trace then List.map plan_count counters else [] in
    let io0 = Durable_io.ops () in
    let t0 = now () in
    ignore (ok "edit" (Workspace.edit ws ~source:name [ op ]) : Delta.t);
    let t1 = now () in
    let report = Workspace.lint ws in
    let t2 = now () in
    add lat (t2 -. t0);
    if trace then begin
      add t_edit (t1 -. t0);
      add t_lint (t2 -. t1);
      io_ops := !io_ops + Durable_io.ops () - io0;
      List.iter
        (fun (tm : Lint.timing) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt pass_ns tm.Lint.pass) in
          Hashtbl.replace pass_ns tm.Lint.pass (prev + tm.Lint.ns))
        report.Lint.timings;
      List.iter2
        (fun c b ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counted c) in
          Hashtbl.replace counted c (prev + plan_count c - b))
        counters before
    end;
    Hashtbl.replace model name (Transform.apply (Hashtbl.find model name) op);
    Hashtbl.replace applied name (op :: Option.value ~default:[] (Hashtbl.find_opt applied name));
    incr ops;
    (* Every so many edits, the report against a cold lint with caches
       off, and the edited source, re-read from its file while the edit
       is in effect, against the model; the checks' time is not counted
       in the window.  The first edit of the window is checked, and the
       sampling step is prime to the round length, so every position of
       a round is checked in a long run. *)
    if !ops mod size.Inputs.lint_check_every = 1 then begin
      let (), dt =
        time (fun () ->
            let reference = Cache_stats.with_disabled (fun () -> Workspace.lint ws) in
            incr lint_checked;
            if report.Lint.diagnostics <> reference.Lint.diagnostics then incr lint_bad;
            incr disk_checked;
            match Workspace.load_source ws name with
            | Ok o when Digraph.equal (Ontology.graph o) (Hashtbl.find model name) -> ()
            | _ -> incr disk_bad)
      in
      paused := !paused +. dt
    end
  in
  let round () =
    let name = List.nth names (!rounds mod List.length names) in
    let concepts, bridged = List.assoc name concepts in
    let edits =
      Inputs.edit_round rng ~round:!rounds ~concepts ~bridged (Hashtbl.find model name)
    in
    incr rounds;
    List.iter (one name) edits
  in
  (* Warm-up: the cold lint that fills the memos, then two rounds. *)
  ignore (Workspace.lint ws : Lint.report);
  round ();
  round ();
  Measure.clear lat;
  Measure.clear t_edit;
  Measure.clear t_lint;
  Hashtbl.reset pass_ns;
  Hashtbl.reset counted;
  io_ops := 0;
  ops := 0;
  paused := 0.0;
  note r "warmup_s" (json_float (now () -. t_setup));
  let elapsed, ends = run_rounds ~seconds ~paused ~per_chunk:13 lat round in
  r.attempted <- count lat;
  let per_op x = float_of_int x /. float_of_int (max 1 (count lat)) in
  if trace then begin
    metric r "store.edit_ms" "ms" (ms (median t_edit));
    metric r "store.io_ops_per_op" "count" (per_op !io_ops);
    metric r "analysis.lint_ms" "ms" (ms (median t_lint));
    List.iter
      (fun pass ->
        let ns = Option.value ~default:0 (Hashtbl.find_opt pass_ns pass) in
        metric r ("analysis.pass." ^ pass ^ "_ms") "ms" (per_op ns /. 1e6))
      Lint.pass_names;
    let c name = per_op (Option.value ~default:0 (Hashtbl.find_opt counted name)) in
    metric r "analysis.passes_rerun_per_op" "count" (c "delta.passes_rerun");
    metric r "analysis.passes_skipped_per_op" "count" (c "delta.passes_skipped");
    metric r "graph.index_patches_per_op" "count" (c "delta.index_patch");
    metric r "trace.edit_lint_op_p50_ms" "ms" (ms (median lat))
  end
  else end_to_end r ~tail:0.9 ~elapsed ~ends lat;
  check r "incremental_lint_equals_cold" ~cases:!lint_checked ~bad:!lint_bad;
  check r "edit_in_effect_on_disk" ~cases:!disk_checked ~bad:!disk_bad;
  (* Every edited source, re-read from disk, against its original with
     the same primitives applied in memory. *)
  let edited = Hashtbl.fold (fun n _ acc -> n :: acc) applied [] in
  let disk_bad =
    List.filter
      (fun name ->
        let ops = List.rev (Hashtbl.find applied name) in
        let expected = Transform.apply_all (List.assoc name originals) ops in
        match Workspace.load_source ws name with
        | Ok o -> not (Digraph.equal (Ontology.graph o) expected)
        | Error _ -> true)
      edited
  in
  check r "edited_sources_equal_replayed_originals" ~cases:(List.length edited)
    ~bad:(List.length disk_bad)

(* ------------------------------------------------------------------ *)
(* cold-open: fresh handle on a paged workspace, one routed query     *)
(* ------------------------------------------------------------------ *)

let cold_open (size : Inputs.size) ~dir ~seconds ~trace r =
  let t_setup = now () in
  let s = Inputs.stream (Inputs.read_lines (dir / "queries.txt")) in
  let root = dir / "ws" in
  let total_sources = List.length (Workspace.source_names (ok "open" (Workspace.open_ root))) in
  (* What one [onion workspace query] process does after it starts.
     Also returns the space the query was answered over. *)
  let op text =
    Cache_stats.clear_all ();
    let ws = ok "open" (Workspace.open_ root) in
    let space, _ = ok "query_space" (Workspace.query_space ws text) in
    let default_ontology = Workspace.default_ontology ws in
    match Mediator.run_text ?default_ontology (env_of space) text with
    | Ok report -> (Ok (answer report, render report), space)
    | Error m -> (Error m, space)
  in
  let t_open = samples () and t_route = samples () and t_load = samples () in
  let t_fed = samples () and t_kb = samples () and t_answer = samples () in
  (* The path of [op], layer by layer, from caches cleared: the route
     lookup, then the loads of the parts of [space], the space
     [Workspace.query_space] answered the query over. *)
  let decompose text (space : Federation.t) =
    Cache_stats.clear_all ();
    let ws, a = time (fun () -> ok "open" (Workspace.open_ root)) in
    match Query.parse ?default_ontology:(Workspace.default_ontology ws) text with
    | Error _ -> ()
    | Ok q ->
        let (), b =
          time (fun () ->
              ignore (ok "manifest" (Segment.read_manifest root) : Segment.entry list);
              ignore
                (ok "route" (Segment.lookup_label root (Term.qualified q.Query.concept))
                  : Segment.shard_line option))
        in
        let (sources, articulations), c =
          time (fun () ->
              ( List.map
                  (fun o -> ok "load" (Workspace.load_source ws (Ontology.name o)))
                  space.Federation.sources,
                List.map
                  (fun n -> ok "load" (Workspace.load_articulation ws n))
                  space.Federation.articulation_names ))
        in
        let space, d = time (fun () -> Federation.of_parts ~sources ~articulations) in
        let kbs, e =
          time (fun () ->
              List.map
                (fun o -> Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
                space.Federation.sources)
        in
        let _, f =
          time (fun () ->
              render (ok "mediate" (Mediator.run (Mediator.env_federated ~kbs ~space ()) q)))
        in
        List.iter2 add [ t_open; t_route; t_load; t_fed; t_kb; t_answer ] [ a; b; c; d; e; f ]
  in
  (* Warm-up of the process (code, heap), not of any cache: each op
     starts from cleared caches anyway. *)
  for _ = 1 to 3 do
    ignore (op (Inputs.next s))
  done;
  note r "warmup_s" (json_float (now () -. t_setup));
  let lat = samples () in
  let results = ref [] and bad_failures = ref [] and routed_ops = ref 0 in
  let loads = ref 0 and hits = ref 0 and misses = ref 0 in
  let store_counts () =
    ( plan_count "store.segment_load",
      plan_count "store.block_hit",
      plan_count "store.block_miss" )
  in
  let paused = ref 0.0 in
  let one text =
    r.attempted <- r.attempted + 1;
    let l0, h0, m0 = store_counts () in
    let (res, space), dt = time (fun () -> op text) in
    add lat dt;
    if trace then begin
      let l1, h1, m1 = store_counts () in
      loads := !loads + l1 - l0;
      hits := !hits + h1 - h0;
      misses := !misses + m1 - m0;
      decompose text space
    end;
    if List.length space.Federation.sources < total_sources then incr routed_ops;
    (match res with
    | Ok _ -> ()
    | Error m ->
        r.failed <- r.failed + 1;
        if not (String.equal text Inputs.probe) then bad_failures := (text, m) :: !bad_failures);
    results := (text, res) :: !results
  in
  let elapsed, ends =
    run_rounds ~seconds ~paused ~per_chunk:2 lat (fun () -> List.iter one (Inputs.round size s))
  in
  if trace then begin
    let n = float_of_int (max 1 r.attempted) in
    metric r "store.open_ms" "ms" (ms (median t_open));
    metric r "store.route_ms" "ms" (ms (median t_route));
    metric r "store.segment_load_ms" "ms" (ms (median t_load));
    metric r "query.federation_ms" "ms" (ms (median t_fed));
    metric r "query.kb_build_ms" "ms" (ms (median t_kb));
    metric r "query.cold_answer_ms" "ms" (ms (median t_answer));
    metric r "store.segment_loads_per_op" "count" (float_of_int !loads /. n);
    metric r "store.block_hit_ratio" "ratio"
      (if !hits + !misses = 0 then 0.0 else float_of_int !hits /. float_of_int (!hits + !misses));
    metric r "store.routed_ratio" "ratio" (float_of_int !routed_ops /. n);
    metric r "trace.cold_open_op_p50_ms" "ms" (ms (median lat))
  end
  else end_to_end r ~tail:0.9 ~elapsed ~ends lat;
  (* Checks: every answer against the same query over the full space,
     which is built once, with caches off, from a fresh handle. *)
  let full = ok "open" (Workspace.open_ root) in
  let default_ontology = Workspace.default_ontology full in
  let mismatched = ref 0 and where_bad = ref 0 in
  Cache_stats.with_disabled (fun () ->
      let space, _ = ok "space" (Workspace.space full) in
      let env = env_of space in
      let memo = Hashtbl.create 64 in
      List.iter
        (fun (text, res) ->
          let reference =
            match Hashtbl.find_opt memo text with
            | Some v -> v
            | None ->
                let v = Mediator.run_text ?default_ontology env text in
                Hashtbl.add memo text v;
                v
          in
          match (res, reference) with
          | Ok (a, _), Ok rep ->
              if a <> answer rep then incr mismatched;
              if not (where_holds text rep) then incr where_bad
          | Error _, Error _ -> ()
          | _ -> incr mismatched)
        !results);
  let n = List.length !results in
  check r "routed_answer_equals_full_space" ~cases:n ~bad:!mismatched;
  check r "tuples_satisfy_where" ~cases:n ~bad:!where_bad;
  check r "only_keyword_probe_fails" ~cases:r.attempted ~bad:(List.length !bad_failures);
  List.iter (fun (t, m) -> Printf.eprintf "unexpected failure: %s -> %s\n" t m) !bad_failures

(* ------------------------------------------------------------------ *)
(* gen                                                                *)
(* ------------------------------------------------------------------ *)

let gen (size : Inputs.size) ~workload ~seed ~dir =
  let (), gen_s =
    time (fun () ->
        Sys.mkdir dir 0o755;
        let paged, pairs, per_pair =
          match workload with
          | "query-flat" -> (false, size.Inputs.flat_pairs, 12_500)
          | "edit-lint" -> (false, size.Inputs.flat_pairs, 0)
          | _ -> (true, size.Inputs.paged_pairs, 125)
        in
        let queries = ref [] and dropped = ref 0 and k = ref 0 in
        let originals = dir / "originals" in
        Sys.mkdir originals 0o755;
        Inputs.publish ~paged (dir / "ws") pairs (Inputs.pair size ~seed) ~each:(fun pa ->
            if per_pair > 0 then begin
              let qs, d = Inputs.pair_queries ~seed ~count:per_pair !k pa in
              queries := qs :: !queries;
              dropped := !dropped + d
            end;
            incr k;
            if workload = "edit-lint" then
              List.iter
                (fun o ->
                  let name = Ontology.name o and g = Ontology.graph o in
                  Adjacency.save_file (originals / (name ^ ".adj")) g;
                  let concepts, bridged = Inputs.edit_concepts g ~source:name pa.Inputs.art in
                  Inputs.write_lines (originals / (name ^ ".concepts")) concepts;
                  Inputs.write_lines (originals / (name ^ ".bridged")) bridged)
                [ pa.Inputs.left; pa.Inputs.right ]);
        Inputs.write_lines (dir / "queries.txt") (Inputs.interleave (List.rev !queries));
        Inputs.write_lines (dir / "dropped.txt") [ string_of_int !dropped ])
  in
  Printf.printf "{\"gen_s\": %s}\n" (json_float gen_s)

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
  let size = match List.assoc_opt "size" o with Some "tiny" -> Inputs.tiny | _ -> Inputs.full in
  let workload = get "workload" in
  if not (List.mem workload [ "query-flat"; "edit-lint"; "cold-open" ]) then
    failwith ("unknown workload " ^ workload);
  match cmd with
  | "gen" -> gen size ~workload ~seed:(int_of_string (get "seed")) ~dir:(get "dir")
  | "run" ->
      let dir = get "dir" and seconds = float_of_string (get "seconds") in
      let trace = get "trace" = "1" in
      let r = result () in
      (match workload with
      | "query-flat" -> query_flat size ~dir ~seconds ~trace r
      | "edit-lint" -> edit_lint size ~seed:(int_of_string (get "seed")) ~dir ~seconds ~trace r
      | _ -> cold_open size ~dir ~seconds ~trace r);
      print_endline (to_json r);
      if not (correct r) then exit 1
  | c -> failwith ("unknown command " ^ c)
