(** The benchmark's entry point: one workload, one seed, one run.

    {v
    bench.exe --workload batch-web|edit-deep|serve-demand --seed N
              --seconds S --trace 0|1 --ptan PATH --work DIR [--commit ID]
    bench.exe --self-test --ptan PATH --work DIR
    v}

    Prints the report, then the one-line JSON result: the end-to-end
    metrics untraced, the per-layer metrics traced (perfbench/README.md). *)

module W = Workloads

(** Per-layer metrics, in report order, with their units. The traced
    run prints every one; 0 marks a layer the workload bypasses. *)
let per_layer =
  [
    ("gen.ms", "ms"); ("simplify.ms", "ms"); ("simplify.stmts", "count");
    ("engine.fixpoint_ms", "ms"); ("engine.analysis_span_ms", "ms"); ("engine.unattributed_ms", "ms");
    ("engine.node_self_ms", "ms"); ("engine.body_self_ms", "ms"); ("engine.loop_self_ms", "ms");
    ("engine.map_self_ms", "ms"); ("engine.unmap_self_ms", "ms"); ("engine.mapunmap_pct", "%");
    ("engine.body_passes", "count"); ("engine.loop_iters", "count"); ("engine.rec_iters", "count");
    ("engine.map_calls", "count"); ("engine.unmap_calls", "count"); ("engine.ig_nodes", "count");
    ("engine.merges", "count"); ("engine.merge_fast_pct", "%"); ("engine.memo_lookups", "count");
    ("engine.memo_hit_pct", "%"); ("gc.alloc_mwords", "Mwords"); ("gc.minor_gcs", "count");
    ("gc.major_gcs", "count"); ("gc.top_heap_mb", "MB"); ("degrade.trips", "count");
    ("degrade.ckpt_funcs", "count"); ("degrade.widen_self_ms", "ms");
    ("degrade.checkpoint_self_ms", "ms"); ("stats.ms", "ms"); ("persist.save_ms", "ms");
    ("persist.load_ms", "ms"); ("persist.entry_kb", "KB"); ("incr.dirty_funcs", "count");
    ("incr.replays", "count"); ("incr.rekey_pct", "%"); ("incr.fixpoint_ms", "ms");
    ("incr.cold_ref_ms", "ms"); ("oracle.prepare_ms", "ms"); ("demand.plan_ms", "ms");
    ("demand.fixpoint_ms", "ms"); ("demand.slice_pct", "%"); ("demand.skipped", "count");
    ("demand.replays", "count"); ("demand.fallbacks", "count"); ("query.answer_us", "us");
    ("serve.batches", "count"); ("serve.errors", "count"); ("serve.shed", "count");
    ("serve.overhead_us", "us"); ("trace.overhead_pct", "%"); ("trace.dropped", "count");
  ]

let end_to_end =
  [
    "setup_s"; "analyze_s"; "degraded_s"; "peak_rss_mb"; "edit_p50_ms"; "edit_tail_ms";
    "query_p50_ms"; "query_tail_ms"; "query_qps";
  ]

let workloads = [ ("batch-web", W.batch_web); ("edit-deep", W.edit_deep); ("serve-demand", W.serve_demand) ]

let in_dir dir f =
  let back = Sys.getcwd () in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir back) f

(** Delete a directory tree this run created. *)
let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let machine (cfg : W.cfg) ~workload ~commit =
  Measure.note
    "machine: workload=%s seed=%d seconds=%g trace=%b nproc=%s domains=%d ocaml=%s commit=%s \
     serve_conns=%d serve_jobs=%d"
    workload cfg.seed cfg.seconds cfg.trace
    (let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
     let n = String.trim (In_channel.input_all ic) in
     ignore (Unix.close_process_in ic);
     n)
    (Domain.recommended_domain_count ()) Sys.ocaml_version commit cfg.conns W.serve_jobs

let run (cfg : W.cfg) ~workload ~work ~commit =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> Fmt.failwith "unknown workload '%s'" workload
  in
  machine cfg ~workload ~commit;
  let dir = Filename.concat work (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> in_dir dir (fun () -> f cfg));
  Measure.check (!Measure.dropped = 0) "trace ring dropped %d spans" !Measure.dropped;
  if cfg.trace then begin
    W.layer "gen.ms" (Measure.layer_ms "gen" /. float_of_int (Measure.layer "gen").calls);
    W.layer "trace.dropped" (float_of_int !Measure.dropped);
    let e2e = !Measure.metrics in
    Measure.metrics := [];
    List.iter
      (fun (name, unit) ->
        Measure.metric name unit (Option.value ~default:0. (Hashtbl.find_opt W.layer_values name)))
      per_layer;
    List.iter (fun (n, v, u) -> Measure.note "traced run: %s = %g %s" n v u) (List.rev e2e)
  end
  else
    List.iter
      (fun name ->
        if not (List.exists (fun (n, _, _) -> String.equal n name) !Measure.metrics) then
          Measure.check false "workload did not measure %s" name)
      end_to_end;
  Measure.print_result ()

(** Every workload at a tiny size, traced and untraced: all checks pass,
    every declared metric is printed, and the IG fold agrees with
    {!Pointsto.Stats.ig_stats} (checked inside each workload). *)
let self_test (cfg : W.cfg) ~work =
  let cfg = { cfg with W.scale = 0.1; seconds = 1. } in
  let ok = ref true in
  List.iter
    (fun (workload, f) ->
      List.iter
        (fun trace ->
          Measure.metrics := [];
          Measure.attempted := 0;
          Measure.failed := 0;
          Measure.failures := [];
          Hashtbl.reset W.layer_values;
          let cfg = { cfg with W.trace } in
          let dir = Filename.concat work (Printf.sprintf "self-test-%d" (Unix.getpid ())) in
          Fun.protect ~finally:(fun () -> remove dir) (fun () -> in_dir dir (fun () -> f cfg));
          let names = List.rev_map (fun (n, _, _) -> n) !Measure.metrics in
          let want = if trace then List.map fst per_layer else end_to_end in
          let layer_names = Hashtbl.fold (fun k _ acc -> k :: acc) W.layer_values [] in
          let undeclared =
            List.filter (fun n -> not (List.mem_assoc n per_layer)) layer_names
          in
          let missing = List.filter (fun n -> not (List.mem n names)) want in
          let pass =
            !Measure.failed = 0 && !Measure.attempted > 0 && (trace || missing = [])
            && undeclared = []
          in
          if not pass then ok := false;
          Measure.note "self-test %-12s trace=%b: %s (%d checks, %d failed%s%s)" workload trace
            (if pass then "ok" else "FAILED")
            !Measure.attempted !Measure.failed
            (if trace || missing = [] then "" else "; missing " ^ String.concat "," missing)
            (if undeclared = [] then "" else "; undeclared " ^ String.concat "," undeclared);
          List.iter (fun f -> Measure.note "  %s" f) !Measure.failures)
        [ false; true ])
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 15. and trace = ref 0 in
  let ptan = ref "" and work = ref "" and commit = ref "unknown" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch-web, edit-deep or serve-demand");
      ("--seed", Arg.Set_int seed, "N workload seed (default: the generator seed of the shape)");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--ptan", Arg.Set_string ptan, "PATH the built ptan executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for generated files");
      ("--commit", Arg.Set_string commit, "ID code identifier recorded beside the result");
      ("--self-test", Arg.Set selftest, " run every workload at a tiny size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --ptan PATH --work DIR";
  if !ptan = "" || !work = "" then (prerr_endline "bench: --ptan and --work are required"; exit 2);
  let default_seed = function "edit-deep" -> 23 | "serve-demand" -> 37 | _ -> 11 in
  let cfg =
    {
      W.seed = (if !seed >= 0 then !seed else default_seed !workload);
      seconds = !seconds;
      trace = !trace = 1;
      scale = 1.;
      ptan = !ptan;
      conns = min 2 (Domain.recommended_domain_count ());
    }
  in
  if !selftest then self_test cfg ~work:!work else run cfg ~workload:!workload ~work:!work ~commit:!commit
