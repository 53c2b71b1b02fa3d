(** The three workloads. Each sets up, measures, checks every output,
    and records its metrics through {!Measure}: the end-to-end set
    always, the per-layer set ({!layer}) too, which the traced run
    prints. *)

module Ir = Simple_ir.Ir
module Analysis = Pointsto.Analysis
module Metrics = Pointsto.Metrics
module Persist = Pointsto.Persist
module Stats = Pointsto.Stats
module Guard = Pointsto.Guard
module Query = Alias.Query
module Demand_driver = Alias.Demand_driver

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** program-size factor; below 1 only in the self-test *)
  ptan : string;  (** the built [ptan] executable *)
  conns : int;  (** serve-demand: client connections *)
}

let size cfg n = max 120 (int_of_float (float_of_int n *. cfg.scale))

(** Per-layer values of this run; a layer the workload bypasses keeps 0. *)
let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let layer name v = Hashtbl.replace layer_values name v

let fuel1 = { Guard.no_budget with Guard.b_fuel = Some 1 }
let simplify ~file text = fst (Measure.time "simplify" (fun () -> Simple_ir.Simplify.of_string ~file text))

(** What [ptan stats] prints after the analysis: the Tables 2-6 rows. *)
let stats_tables r =
  fst
    (Measure.time "stats" (fun () ->
         ignore (Stats.characteristics r);
         ignore (Stats.indirect_stats r);
         ignore (Stats.general r);
         ignore (Stats.ig_stats r)))

(** Record the engine counters of a {!Metrics.t} as layer metrics. *)
let engine_counters (m : Metrics.t) ~ig_nodes =
  layer "engine.body_passes" (float_of_int m.bodies);
  layer "engine.loop_iters" (float_of_int m.loop_iters);
  layer "engine.rec_iters" (float_of_int m.rec_iters);
  layer "engine.map_calls" (float_of_int m.map_calls);
  layer "engine.unmap_calls" (float_of_int m.unmap_calls);
  layer "engine.ig_nodes" (float_of_int ig_nodes);
  layer "engine.merges" (float_of_int m.merges);
  layer "engine.merge_fast_pct" (Metrics.ratio m.merge_fast m.merges);
  layer "engine.memo_lookups" (float_of_int m.memo_lookups);
  layer "engine.memo_hit_pct" (Metrics.ratio m.memo_hits m.memo_lookups)

(** Record the by-kind self times of a traced engine run. *)
let engine_kinds kinds =
  List.iter
    (fun k -> layer (Printf.sprintf "engine.%s_self_ms" k) (Measure.kind_self_ms kinds k))
    [ "node"; "body"; "loop"; "map"; "unmap" ]

(** GC activity inside the workload's primary timed layer. *)
let gc_of layer_name =
  let l = Measure.layer layer_name in
  layer "gc.alloc_mwords" (l.alloc_words /. 1e6);
  layer "gc.minor_gcs" (float_of_int l.minor);
  layer "gc.major_gcs" (float_of_int l.major);
  layer "gc.top_heap_mb"
    (float_of_int (Gc.quick_stat ()).top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.)

(** The tracing overhead probe: the same analysis untraced, then
    traced, three times; the medians' difference as a share. Returns
    the last traced result with its spans by kind. *)
let trace_overhead prog =
  let last = ref None in
  let runs =
    List.init 3 (fun _ ->
        last := None;
        let _, plain = Measure.time "probe" (fun () -> Analysis.analyze prog) in
        let (r, traced), kinds =
          Measure.traced (fun () -> Measure.time "probe" (fun () -> Analysis.analyze prog))
        in
        last := Some (r, kinds);
        (plain, traced))
  in
  let untraced = Measure.median (List.map fst runs) and traced = Measure.median (List.map snd runs) in
  layer "trace.overhead_pct" (100. *. (traced -. untraced) /. untraced);
  Option.get !last

(** [Query.run] on a reference result: the answer a served query must
    give. *)
let reference_answer r q = fst (Measure.time "query.answer" (fun () -> Query.run r q))

(** A query as the command line asks it once a result is cached: the
    result served by {!Persist.analyze_cached}, then [Query.run]. The
    answer must equal [expected] (from {!reference_answer}), and the
    load must be a cache hit. Returns the seconds the user waited. *)
let cached_query ~cache_dir ~incremental ~file (q, expected) =
  let (hit, answer), t =
    Measure.time "query" (fun () ->
        let r, hit = Persist.analyze_cached ~cache_dir ~incremental file in
        (hit, Query.run r q))
  in
  Measure.check
    (hit && Result.is_ok expected && answer = expected)
    "cached query %s: %s" q
    (if hit then "answer differs from the reference" else "cache miss");
  t

let answer_us () =
  let l = Measure.layer "query.answer" in
  l.secs *. 1e6 /. float_of_int (max 1 l.calls)

let record_queries per_query qps =
  let tail, pct, n = Measure.tail per_query in
  Measure.note "query tail: p%.1f of %d queries" pct n;
  Measure.metric "query_p50_ms" "ms" (Measure.median per_query *. 1e3);
  Measure.metric "query_tail_ms" "ms" (tail *. 1e3);
  Measure.metric "query_qps" "1/s" qps

let record_edits samples =
  let tail, pct, n = Measure.tail samples in
  Measure.note "edit tail: p%.1f of %d edits" pct n;
  Measure.metric "edit_p50_ms" "ms" (Measure.median samples *. 1e3);
  Measure.metric "edit_tail_ms" "ms" (tail *. 1e3)

(** The [j]-th of [parts] consecutive shares of [l]. The workloads
    spread short operations over the gaps between long ones: the host's
    speed moved by up to 25% for stretches of 0.3-1 s, so a metric whose
    samples come from one stretch reads that stretch's speed. *)
let share l ~parts j =
  let n = List.length l in
  List.filteri (fun i _ -> i * parts / n = j) l

(** Edits per run: a fixed count (so the tail's percentile never
    depends on machine speed), scaled with the window. *)
let n_edits cfg = 3 * max 11 (int_of_float (cfg.seconds *. 4. /. 3.))

(* ------------------------------------------------------------------ *)
(* batch-web                                                          *)
(* ------------------------------------------------------------------ *)

(** Precise + fuel-1 pairs per run: one per 5 s of window (a pair
    takes about 8 s at web-3000), so the count never depends on machine
    speed. *)
let analysis_iters cfg = max 1 (int_of_float (cfg.seconds /. 5.))

(** Lowerings of each edited text whose mean is one edit sample. *)
let relowerings = 5

(** The share of the traced analysis span that the nested spans may
    leave to the span's own self time. *)
let unattributed_tolerance = 0.01

(** Digest of the web-3000 result (generator seed 11) in any function
    order: the analysis must reproduce it on every run seed. *)
let pinned_web_3000 = "db158864dd96b8e7a94dea7774dfde31"

let batch_web cfg =
  let k = Programs.web (size cfg 3000) in
  let text_of () =
    let t = Programs.gen k in
    if cfg.seed = k.Gen.seed then t
    else Programs.permute_defs (Random.State.make [| cfg.seed |]) t
  in
  let setups = List.init 51 (fun _ -> Measure.time "setup" text_of) in
  let text = fst (List.hd setups) in
  let expected =
    if k.Gen.size = 3000 then pinned_web_3000
    else Programs.digest (Analysis.analyze (simplify ~file:"web.c" (Gen.program k)))
  in
  let run_once ~budget =
    let prog = simplify ~file:"web.c" text in
    let name = if budget = None then "engine" else "degrade" in
    let r = fst (Measure.time name (fun () -> Analysis.analyze ?budget prog)) in
    stats_tables r;
    r
  in
  (* The run is [rounds] rounds of a precise and two fuel-1 analyses.
     The edits and queries are cut into shares made in the gaps between
     them (see {!share}). *)
  let rounds = if cfg.trace then 1 else analysis_iters cfg in
  let gaps = (2 * rounds) + 1 in
  (* the batch user's save loop: every edit re-lowers the whole file.
     A sample is the mean of [relowerings] lowerings of the edited
     text, about 80 ms of work rather than one 10-17 ms lowering. *)
  let n_funcs = List.length (Programs.defined_funcs text) in
  let rng = Random.State.make [| cfg.seed; 1 |] in
  let plan =
    List.filteri (fun i _ -> i < n_edits cfg) (List.mapi (fun i e -> (i, e)) (Programs.edit_plan rng text))
  in
  let edited = ref text and edit_samples = ref [] in
  let edit (i, (fn, kind)) =
    edited := Programs.apply_edit !edited ~fn ~kind ~k:i;
    (* each save is a fresh [ptan stats] process: an empty heap *)
    Gc.compact ();
    let lowered =
      List.init relowerings (fun _ -> Measure.time "batch.edit" (fun () -> simplify ~file:"web.c" !edited))
    in
    let p = fst (List.hd lowered) in
    Measure.check
      (List.length (List.filter (fun f -> String.starts_with ~prefix:"f" f.Ir.fn_name) p.Ir.funcs)
       = n_funcs)
      "edited web lost functions";
    edit_samples := (List.fold_left (fun a (_, t) -> a +. t) 0. lowered /. float_of_int relowerings) :: !edit_samples
  in
  (* the batch user's queries, once the first run has cached its
     result; their reference answers are taken then, so no result stays
     live across the edits *)
  let file = "web.c" and cache_dir = "cache" in
  Programs.write file text;
  let asks = ref [] and per_query = ref [] in
  let gap j =
    List.iter edit (share plan ~parts:gaps j);
    if j > 0 then
      List.iter
        (fun ask -> per_query := cached_query ~cache_dir ~incremental:false ~file ask :: !per_query)
        (share !asks ~parts:(gaps - 1) (j - 1))
  in
  let precise = ref [] and degraded = ref [] and rss = ref None and result = ref None in
  let degrade () =
    let d, td = Measure.time "batch.degraded" (fun () -> run_once ~budget:(Some fuel1)) in
    degraded := td :: !degraded;
    Measure.check (d.Analysis.degraded <> None) "fuel 1 did not trip";
    d
  in
  for round = 0 to rounds - 1 do
    gap (2 * round);
    Gc.compact ();
    (* the peak covers the first precise analysis, as in a fresh
       process. Later runs are on a fragmented heap (this OCaml's
       [Gc.compact] does not move blocks), and their peak grew by up to
       50 MB, by an amount that depended on the function order. *)
    if round = 0 then Measure.reset_peak_rss ();
    let r, t = Measure.time "batch.precise" (fun () -> run_once ~budget:None) in
    precise := t :: !precise;
    if round = 0 then begin
      rss := Some (Measure.peak_rss_mb ());
      Persist.save ~source:file r
        (Persist.cache_file ~cache_dir ~source:file ~opts:Pointsto.Options.default ~entry:"main");
      asks :=
        Programs.queries (Random.State.make [| cfg.seed |]) r.Analysis.prog
        |> List.filteri (fun i _ -> i < 33)
        |> List.map (fun q -> (q, reference_answer r q))
    end;
    let dg = Programs.digest r in
    Measure.check (String.equal dg expected) "batch-web digest %s, pinned %s" dg expected;
    Measure.check (Programs.ig_agrees r) "IG fold disagrees with Stats.ig_stats";
    Measure.check (Programs.superset ~full:r ~degraded:(degrade ())) "fuel-1 tables lost precise pairs";
    result := Some (r.Analysis.metrics, Programs.ig_nodes r, r.Analysis.prog.Ir.n_stmts);
    gap ((2 * round) + 1);
    ignore (degrade ())
  done;
  gap (gaps - 1);
  let rss = Option.get !rss and metrics, ig_nodes, n_stmts = Option.get !result in
  let qps = float_of_int (List.length !per_query) /. List.fold_left ( +. ) 0. !per_query in
  Measure.metric "setup_s" "s" (Measure.median (List.map snd setups));
  Measure.metric "analyze_s" "s" (Measure.median !precise);
  Measure.metric "degraded_s" "s" (Measure.median !degraded);
  Measure.metric "peak_rss_mb" "MB" rss;
  record_edits !edit_samples;
  record_queries !per_query qps;
  if cfg.trace then begin
    let prog = simplify ~file:"web.c" text in
    let rt, kinds = trace_overhead prog in
    Measure.check (String.equal (Programs.digest rt) expected) "traced run changed the result";
    (* every kind nested in the analysis span, the engine's five and
       any other; what none of them covers is the span's own self time *)
    let span = Measure.kind_cum_ms kinds "analysis" in
    let attributed =
      Hashtbl.fold
        (fun k (s, _, _) acc -> if String.equal k "analysis" then acc else acc +. (s *. 1e3))
        kinds 0.
    in
    let unattributed = span -. attributed in
    Measure.check
      (unattributed <= unattributed_tolerance *. span)
      "by-kind self times (%.1f ms) leave %.1f ms of the analysis span (%.1f ms) unattributed"
      attributed unattributed span;
    engine_kinds kinds;
    layer "engine.analysis_span_ms" span;
    layer "engine.unattributed_ms" unattributed;
    layer "engine.mapunmap_pct"
      (100. *. (Measure.kind_self_ms kinds "map" +. Measure.kind_self_ms kinds "unmap") /. span);
    let dt, dkinds = Measure.traced (fun () -> Analysis.analyze ~budget:fuel1 prog) in
    layer "degrade.widen_self_ms" (Measure.kind_self_ms dkinds "widen");
    layer "degrade.checkpoint_self_ms" (Measure.kind_self_ms dkinds "checkpoint");
    layer "degrade.trips" (float_of_int dt.Analysis.metrics.Metrics.budget_trips);
    layer "degrade.ckpt_funcs" (float_of_int dt.Analysis.metrics.Metrics.ckpt_funcs)
  end;
  layer "engine.fixpoint_ms" (metrics.Metrics.t_analysis *. 1e3);
  engine_counters metrics ~ig_nodes;
  gc_of "engine";
  layer "simplify.stmts" (float_of_int n_stmts);
  layer "simplify.ms" (Measure.layer_ms "simplify" /. float_of_int (Measure.layer "simplify").calls);
  layer "stats.ms" (Measure.layer_ms "stats" /. float_of_int (Measure.layer "stats").calls);
  layer "query.answer_us" (answer_us ())

(* ------------------------------------------------------------------ *)
(* edit-deep                                                          *)
(* ------------------------------------------------------------------ *)

let edit_deep cfg =
  let k = Programs.deep (size cfg 1000) in
  let file = "deep.c" in
  (* set-up: generate, then fill the incremental cache from cold *)
  let setups =
    List.init 3 (fun i ->
        let cache_dir = Printf.sprintf "cache-%d" i in
        Measure.time "setup" (fun () ->
            let text = Programs.gen k in
            Programs.write file text;
            ignore (Persist.analyze_cached ~cache_dir ~incremental:true file);
            (text, cache_dir)))
  in
  let (text, cache_dir), _ = List.nth setups 2 in
  (* every edit is a save on top of the fully cached program: the entry
     is put back before each one. Cumulative edits made an edit's cost
     depend on the summaries the previous runs left in the entry, and
     the median edit moved 140-250 ms between seeds. *)
  let entry =
    Persist.cache_file_incr ~cache_dir ~source:file ~opts:Pointsto.Options.default ~entry:"main"
  in
  let cached = In_channel.with_open_bin entry In_channel.input_all in
  let rng = Random.State.make [| cfg.seed |] in
  let plan = Programs.edit_plan rng text in
  Measure.reset_peak_rss ();
  let kinds = Hashtbl.create 16 in
  let totals = Metrics.create () in
  let incr_ms = ref 0. and rekeys = ref 0 in
  let step (edits, colds, fuels, queries, _) (i, (fn, kind)) =
    let text = Programs.apply_edit text ~fn ~kind ~k:i in
    Programs.write file text;
    Programs.write entry cached;
    (* without this, each edit also paid for collecting the results of
       the checks before it, and the median edit moved by a further 12% *)
    Gc.full_major ();
    Metrics.reset ();
    let edit () = Persist.analyze_cached ~cache_dir ~incremental:true file in
    let (r, hit), t =
      if cfg.trace then begin
        let rt, ks = Measure.traced (fun () -> Measure.time "incr.edit" edit) in
        Measure.add_kinds ~into:kinds ks;
        rt
      end
      else Measure.time "incr.edit" edit
    in
    let m = Metrics.snapshot () in
    Metrics.add_into ~into:totals m;
    if hit then incr rekeys else incr_ms := !incr_ms +. (m.Metrics.t_analysis *. 1e3);
    (* the check, and the number an edit must beat: a bare analysis *)
    let prog = simplify ~file text in
    let cold, tc = Measure.time "incr.cold_ref" (fun () -> Analysis.analyze prog) in
    Measure.check
      (String.equal (Programs.digest r) (Programs.digest cold))
      "edit %d (%s in %s): incremental result differs from a cold analysis" i
      (Programs.edit_kind_name kind) fn;
    (* the IDE asks after saving; the flavours take turns *)
    let q = List.nth (Programs.queries (Random.State.make [| cfg.seed; i |]) r.Analysis.prog) (i mod 3) in
    let tq = cached_query ~cache_dir ~incremental:true ~file (q, reference_answer cold q) in
    let fuels =
      if i mod 3 = 0 then begin
        let d, td = Measure.time "degrade" (fun () -> Analysis.analyze ~budget:fuel1 prog) in
        Measure.check (Programs.superset ~full:cold ~degraded:d) "fuel-1 tables lost precise pairs";
        td :: fuels
      end
      else fuels
    in
    (t :: edits, tc :: colds, fuels, tq :: queries, Some (r, cold, text))
  in
  let edits, colds, fuels, queries, last =
    List.fold_left step ([], [], [], [], None) (List.mapi (fun i e -> (i, e)) plan)
  in
  let r, cold, text = Option.get last in
  Measure.check (Programs.ig_agrees cold) "IG fold disagrees with Stats.ig_stats";
  let rss = Measure.peak_rss_mb () in
  Measure.metric "setup_s" "s" (Measure.median (List.map snd setups));
  Measure.metric "analyze_s" "s" (Measure.median colds);
  Measure.metric "degraded_s" "s" (Measure.median fuels);
  Measure.metric "peak_rss_mb" "MB" rss;
  record_edits edits;
  record_queries queries (float_of_int (List.length queries) /. List.fold_left ( +. ) 0. queries);
  let n = float_of_int (List.length plan) in
  if cfg.trace then begin
    engine_kinds kinds;
    ignore (trace_overhead (simplify ~file text))
  end;
  engine_counters totals ~ig_nodes:(Programs.ig_nodes r);
  gc_of "incr.edit";
  layer "simplify.stmts" (float_of_int r.Analysis.prog.Ir.n_stmts);
  layer "simplify.ms" (Measure.layer_ms "simplify" /. float_of_int (Measure.layer "simplify").calls);
  let _, t_stats = Measure.time "stats" (fun () -> stats_tables cold) in
  layer "stats.ms" (t_stats *. 1e3);
  layer "persist.save_ms" (totals.Metrics.t_serialize *. 1e3 /. n);
  layer "persist.load_ms" (totals.Metrics.t_deserialize *. 1e3 /. n);
  layer "persist.entry_kb" (float_of_int (String.length cached) /. 1024.);
  layer "incr.dirty_funcs" (float_of_int totals.Metrics.incr_funcs_dirty);
  layer "incr.replays" (float_of_int totals.Metrics.incr_funcs_reused);
  layer "incr.rekey_pct" (100. *. float_of_int !rekeys /. n);
  layer "incr.fixpoint_ms" (!incr_ms /. n);
  layer "incr.cold_ref_ms" (Measure.median colds *. 1e3);
  layer "query.answer_us" (answer_us ())

(* ------------------------------------------------------------------ *)
(* serve-demand                                                       *)
(* ------------------------------------------------------------------ *)

(** The daemon's [-j]. With [-j 2] on two cores, the daemon's pool
    domains, its event loop and the client contend for the cores, and
    the pass-2 rate moved between 25k and 97k/s from run to run; with
    one pool domain it stays within about 5%. *)
let serve_jobs = 1

(** Clients per connection in pass 2. Memoized answers take
    microseconds, so with one request in flight per connection the
    round trip is mostly the daemon's wake-up and pool hand-off, and
    the rate moved 2.5x between runs of one seed; at 16 and 32 clients
    it still moved 1.5x; at 64 it stays within about 10%. *)
let pass2_window = 128

let serve_demand cfg =
  let members = [ ("web", Programs.web); ("deep", Programs.deep); ("knot", Programs.knot) ] in
  let members = List.map (fun (name, shape) -> (name, shape (size cfg 1000))) members in
  let files = List.map (fun (name, _) -> name ^ ".c") members in
  let socket = "serve.sock" in
  (* set-up: generate the members, start the daemon, wait for ready *)
  let start () =
    Measure.time "setup" (fun () ->
        List.iter (fun (name, k) -> Programs.write (name ^ ".c") (Programs.gen k)) members;
        Daemon.start ~ptan:cfg.ptan ~jobs:serve_jobs ~socket files)
  in
  let setups =
    List.init 5 (fun i ->
        let d, t = start () in
        if i < 4 then Daemon.stop d;
        (d, t))
  in
  let daemon = fst (List.nth setups 4) in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let conns = List.init cfg.conns (fun _ -> Daemon.connect daemon) in
  let c0 = List.hd conns in
  let rng = Random.State.make [| cfg.seed |] in
  (* the serving edit loop, while the daemon's heap is still small (a
     reload drops the member's memoized slices, and collecting hundreds
     of MB of them would land on whichever reload came next): edit a
     member, reload it. The reloads are cut into shares made between
     the reference analyses (see {!share}). *)
  let current = Hashtbl.create 3 in
  List.iter (fun (name, k) -> Hashtbl.replace current name (Gen.program k)) members;
  let edits = ref [] in
  let reload (i, kind) =
    let name = fst (List.nth members (i mod 3)) in
    let funcs = Array.of_list (Programs.defined_funcs (Hashtbl.find current name)) in
    let fn = funcs.(Random.State.int rng (Array.length funcs)) in
    let text = Programs.apply_edit (Hashtbl.find current name) ~fn ~kind ~k:i in
    Hashtbl.replace current name text;
    Programs.write (name ^ ".c") text;
    let reply, t = Measure.time "serve.reload" (fun () -> Daemon.request c0 ("reload " ^ name)) in
    Measure.check (String.starts_with ~prefix:"ok reloaded" reply) "reload %s answered '%s'" name reply;
    edits := t :: !edits
  in
  let plan = List.mapi (fun i kind -> (i, kind)) (Programs.edit_kinds rng (n_edits cfg)) in
  (* reference: exhaustive results of the members, precise and under
     fuel 1, after every share of edits; the last are of the edited
     members, the answers every reply must match *)
  let analyze_all ?budget progs = List.map (fun (name, p) -> (name, Analysis.analyze ?budget p)) progs in
  let runs = ref [] and fuels = ref [] and last = ref None in
  let parts = 8 in
  for j = 0 to parts - 1 do
    List.iter reload (share plan ~parts j);
    last := None;
    let progs =
      List.map
        (fun (name, _) -> (name, simplify ~file:(name ^ ".c") (Hashtbl.find current name)))
        members
    in
    let refs, t = Measure.time "engine" (fun () -> analyze_all progs) in
    runs := t :: !runs;
    let degs, t = Measure.time "degrade" (fun () -> analyze_all ~budget:fuel1 progs) in
    fuels := t :: !fuels;
    List.iter2
      (fun (name, full) (_, degraded) ->
        Measure.check (Programs.superset ~full ~degraded) "%s: fuel-1 tables lost precise pairs" name)
      refs degs;
    last := Some (progs, refs)
  done;
  let progs, refs = Option.get !last in
  let edits = !edits and runs = !runs and fuels = !fuels in
  List.iter
    (fun (name, r) -> Measure.check (Programs.ig_agrees r) "%s: IG fold disagrees with Stats" name)
    refs;
  let asks =
    List.concat_map
      (fun (name, r) -> List.map (fun q -> (name, r, q)) (Programs.queries rng r.Analysis.prog))
      refs
    |> Programs.shuffle rng |> Array.of_list
  in
  let reqs = Array.map (fun (name, _, q) -> Printf.sprintf "q %s %s" name q) asks in
  let expected =
    Array.map
      (fun (_, r, q) ->
        match Query.run r q with Ok a -> "ok " ^ a | Error e -> "reference error " ^ e)
      asks
  in
  let check_replies replies =
    Array.iteri
      (fun i (reply, _) ->
        Measure.check (String.equal reply expected.(i)) "%s: got '%s', expected '%s'" reqs.(i)
          reply expected.(i))
      replies
  in
  (* pass 1: every query is the first touch of its function's slice.
     One connection: the daemon answers a batch before it reads the
     next, so a first touch arriving on a second connection would wait
     out whatever the first is computing, and its latency would depend
     on how arrivals happened to pair up. *)
  let pass1 = Daemon.closed_loop [ c0 ] reqs in
  check_replies pass1;
  (* pass 2: the same queries against the memoized slices, in rounds;
     the throughput is the median round's *)
  let t2 = Measure.now () in
  let rounds = ref [] in
  let round = Array.concat (List.init 4 (fun _ -> reqs)) in
  while !rounds = [] || Measure.now () -. t2 < cfg.seconds /. 3. do
    let replies, t = Measure.time "serve.pass2" (fun () -> Daemon.closed_loop ~window:pass2_window conns round) in
    Array.iteri
      (fun i (reply, _) ->
        let j = i mod Array.length reqs in
        Measure.check (String.equal reply expected.(j)) "%s: got '%s', expected '%s'" reqs.(j)
          reply expected.(j))
      replies;
    rounds := (float_of_int (Array.length round) /. t) :: !rounds
  done;
  (* one request in flight: the round trip a single memoized answer pays *)
  let rtt = Measure.median (List.map snd (Array.to_list (Daemon.closed_loop [ c0 ] reqs))) in
  let stats = Daemon.request c0 "stats" in
  let stat key =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] when String.equal k key -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char ' ' stats)
    |> Option.value ~default:nan
  in
  let rss = Measure.peak_rss_mb ~pid:(string_of_int daemon.Daemon.pid) () in
  List.iter (fun c -> Unix.close c.Daemon.fd) conns;
  Measure.check (stat "error" = 0. && stat "shed" = 0.) "daemon counted errors: %s" stats;
  Measure.metric "setup_s" "s" (Measure.median (List.map snd setups));
  Measure.metric "analyze_s" "s" (Measure.median runs);
  Measure.metric "degraded_s" "s" (Measure.median fuels);
  Measure.metric "peak_rss_mb" "MB" rss;
  record_edits edits;
  record_queries (List.map snd (Array.to_list pass1)) (Measure.median !rounds);
  layer "serve.batches" (stat "batches");
  layer "serve.errors" (stat "error");
  layer "serve.shed" (stat "shed");
  (* the layers under the daemon, replayed in this process for the
     traced run: oracle, slice plan, sliced fixpoint and query
     evaluation, per first touch *)
  if cfg.trace then begin
    let kinds = Hashtbl.create 16 in
    let totals = Metrics.create () in
    let answers = ref [] in
    List.iter
      (fun (name, p) ->
        let d = fst (Measure.time "oracle" (fun () -> Demand_driver.prepare p)) in
        let seen = Hashtbl.create 64 in
        Array.iter
          (fun (n, _, q) ->
            match (String.equal n name, Query.parse q) with
            | false, _ | _, Error _ -> ()
            | true, Ok parsed -> (
                match Demand_driver.seed_of d parsed with
                | None -> ()
                | Some seed ->
                    let r =
                      match Hashtbl.find_opt seen seed with
                      | Some r -> r
                      | None ->
                          Metrics.reset ();
                          let plan =
                            fst (Measure.time "demand.plan" (fun () -> Demand_driver.plan_for d ~seed))
                          in
                          let r, ks =
                            Measure.traced (fun () ->
                                fst
                                  (Measure.time "demand.fixpoint" (fun () ->
                                       Analysis.analyze_demand ~plan p)))
                          in
                          Measure.add_kinds ~into:kinds ks;
                          Metrics.add_into ~into:totals (Metrics.snapshot ());
                          Hashtbl.replace seen seed r;
                          r
                    in
                    let _, t = Measure.time "query" (fun () -> Query.answer r parsed) in
                    answers := (t *. 1e6) :: !answers))
          asks)
      progs;
    engine_kinds kinds;
    ignore (trace_overhead (List.assoc "knot" progs));
    engine_counters totals ~ig_nodes:(List.fold_left (fun a (_, r) -> a + Programs.ig_nodes r) 0 refs);
    gc_of "demand.fixpoint";
    layer "engine.fixpoint_ms" (Measure.median runs *. 1e3);
    layer "simplify.stmts" (float_of_int (List.fold_left (fun a (_, p) -> a + p.Ir.n_stmts) 0 progs));
    layer "simplify.ms" (Measure.layer_ms "simplify");
    let _, t_stats = Measure.time "stats" (fun () -> List.iter (fun (_, r) -> stats_tables r) refs) in
    layer "stats.ms" (t_stats *. 1e3);
    layer "oracle.prepare_ms" (Measure.layer_ms "oracle");
    layer "demand.plan_ms" (Measure.layer_ms "demand.plan");
    layer "demand.fixpoint_ms" (Measure.layer_ms "demand.fixpoint");
    layer "demand.slice_pct" (Metrics.ratio totals.Metrics.demand_slice_funcs totals.demand_funcs_total);
    layer "demand.skipped" (float_of_int totals.Metrics.demand_skipped);
    layer "demand.replays" (float_of_int totals.Metrics.demand_replays);
    layer "demand.fallbacks" (float_of_int totals.Metrics.demand_fallbacks);
    let answer = Measure.median !answers in
    layer "query.answer_us" answer;
    layer "serve.overhead_us" ((rtt *. 1e6) -. answer)
  end
