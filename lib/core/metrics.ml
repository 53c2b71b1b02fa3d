(** Engine observability: per-phase timing and work counters.

    One mutable record per domain accumulates counts from the hot paths
    of the analysis — the points-to lattice operations ({!Pts}), the
    kill / change / gen rule and the fixed points ({!Engine}), and the
    call mapping machinery ({!Map_unmap}). {!Analysis.analyze} resets
    the calling domain's record on entry and stores a {!snapshot} in its
    result, so every result carries the exact work its computation
    performed.

    The accumulator is domain-local ({!Domain.DLS}): an analysis runs
    wholly on one domain, so parallel workers ({!Pool}) never contend on
    the counters and each produces a coherent snapshot. Aggregate
    snapshots from several tasks with {!add_into} / {!sum} when one
    table must cover a whole suite.

    The counters are deliberately cheap (single mutable-int bumps) so
    they can stay enabled in benchmark runs. *)

type t = {
  (* Pts lattice operations *)
  mutable merges : int;  (** {!Pts.merge} invocations *)
  mutable merge_fast : int;
      (** merges answered by the subsumption pre-check without
          rebuilding the map *)
  mutable shared_visits : int;
      (** statement visits recorded by a representative's row instead of
          a merge of their own ({!Tenv.reps}) *)
  mutable equal_checks : int;  (** {!Pts.equal} invocations *)
  mutable equal_fast : int;
      (** equalities decided by physical identity or the cardinality
          pre-check alone *)
  mutable covered_checks : int;  (** {!Pts.covered_by} invocations *)
  mutable covered_fast : int;
      (** coverings decided by identity or cardinality alone *)
  (* Figure 1 rule applications *)
  mutable assigns : int;  (** kill/change/gen rule applications *)
  mutable kills : int;  (** strong updates: sources killed *)
  mutable weakens : int;  (** weak updates: sources demoted *)
  mutable gens : int;  (** generated (L, R) pairs *)
  (* fixed points *)
  mutable loop_iters : int;  (** loop-head fixed-point iterations *)
  mutable rec_iters : int;
      (** re-evaluations forced by the recursion fixed point (Figure 4)
          and by pending approximate-node inputs *)
  mutable bodies : int;  (** completed function-body passes, one [Body] span each *)
  (* §6 sub-tree sharing memo *)
  mutable memo_lookups : int;
  mutable memo_hits : int;
  (* map/unmap (§4.1) *)
  mutable map_calls : int;
  mutable unmap_calls : int;
  mutable call_reuses : int;
      (** calls answered by the engine's call-site memo (map reused) *)
  (* result cache ({!Persist}) *)
  mutable cache_hits : int;  (** results served from the disk cache *)
  mutable cache_misses : int;  (** cache lookups that fell back to analysis *)
  mutable cache_quarantined : int;
      (** corrupt cache entries renamed to [.bad] and re-analyzed *)
  (* resource governor ({!Guard}) *)
  mutable budget_trips : int;
      (** budget exhaustions that degraded an analysis to the widened
          (context-insensitive, possible-only) rerun *)
  mutable heap_trips : int;
      (** budget trips whose reason was the [--max-heap-mb] memory
          ceiling (a subset of [budget_trips]) *)
  mutable ckpt_funcs : int;
      (** per-function IN/OUT slots seeded into a widened rerun from
          the aborted precise run's checkpoint (docs/ROBUSTNESS.md) *)
  (* incremental re-analysis ({!Persist.analyze_cached} with
     [~incremental:true]) *)
  mutable incr_funcs_dirty : int;
      (** functions marked dirty by the content-hash diff (edited
          functions plus everything that can reach one) *)
  mutable incr_funcs_reused : int;
      (** summary replays: memoized (input, output) pairs served from
          the persisted summaries instead of re-running the body *)
  (* demand-driven mode ({!Demand} / {!Analysis.analyze_demand}) *)
  mutable demand_plans : int;  (** slice plans built *)
  mutable demand_slice_funcs : int;
      (** functions in the planned slices (summed over plans) *)
  mutable demand_funcs_total : int;
      (** defined functions in the planned programs (summed over plans) *)
  mutable demand_skipped : int;
      (** out-of-slice call evaluations answered by the widened
          transfer *)
  mutable demand_replays : int;
      (** out-of-slice call evaluations answered exactly from a seeded
          summary *)
  mutable demand_fallbacks : int;
      (** demand analyses aborted to the exhaustive engine (oracle
          conservatism violated at an indirect site) *)
  (* external-call model ({!Libmodel}) *)
  mutable ext_modeled : int;
      (** external call evaluations answered by the library-model
          table *)
  mutable ext_unmodeled : int;
      (** external call evaluations that fell back to the coarse
          model *)
  (* analysis daemon ({!Serve}); daemon-level counters, always 0 in a
     single analysis' snapshot and deliberately not persisted *)
  mutable serve_requests : int;  (** protocol requests received *)
  mutable serve_errors : int;  (** requests answered with an [error] reply *)
  mutable serve_shed : int;
      (** requests shed by admission control (a [busy] reply) *)
  (* per-phase wall-clock time, seconds *)
  mutable t_map : float;  (** in {!Map_unmap.map_call} *)
  mutable t_unmap : float;  (** in {!Map_unmap.unmap_call} *)
  mutable t_analysis : float;  (** whole {!Analysis.analyze} run *)
  mutable t_serialize : float;  (** in {!Persist.save} *)
  mutable t_deserialize : float;  (** in {!Persist.load} *)
}

let create () =
  {
    merges = 0;
    merge_fast = 0;
    shared_visits = 0;
    equal_checks = 0;
    equal_fast = 0;
    covered_checks = 0;
    covered_fast = 0;
    assigns = 0;
    kills = 0;
    weakens = 0;
    gens = 0;
    loop_iters = 0;
    rec_iters = 0;
    bodies = 0;
    memo_lookups = 0;
    memo_hits = 0;
    map_calls = 0;
    unmap_calls = 0;
    call_reuses = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_quarantined = 0;
    budget_trips = 0;
    heap_trips = 0;
    ckpt_funcs = 0;
    incr_funcs_dirty = 0;
    incr_funcs_reused = 0;
    demand_plans = 0;
    demand_slice_funcs = 0;
    demand_funcs_total = 0;
    demand_skipped = 0;
    demand_replays = 0;
    demand_fallbacks = 0;
    ext_modeled = 0;
    ext_unmodeled = 0;
    serve_requests = 0;
    serve_errors = 0;
    serve_shed = 0;
    t_map = 0.;
    t_unmap = 0.;
    t_analysis = 0.;
    t_serialize = 0.;
    t_deserialize = 0.;
  }

(* One accumulator per domain: worker domains spawned by {!Pool} get a
   fresh record on first use, so the hot-path bumps below never race. *)
let key : t Domain.DLS.key = Domain.DLS.new_key create

(** The calling domain's accumulator. *)
let cur () = Domain.DLS.get key

let reset () =
  let cur = cur () in
  cur.merges <- 0;
  cur.merge_fast <- 0;
  cur.shared_visits <- 0;
  cur.equal_checks <- 0;
  cur.equal_fast <- 0;
  cur.covered_checks <- 0;
  cur.covered_fast <- 0;
  cur.assigns <- 0;
  cur.kills <- 0;
  cur.weakens <- 0;
  cur.gens <- 0;
  cur.loop_iters <- 0;
  cur.rec_iters <- 0;
  cur.bodies <- 0;
  cur.memo_lookups <- 0;
  cur.memo_hits <- 0;
  cur.map_calls <- 0;
  cur.unmap_calls <- 0;
  cur.call_reuses <- 0;
  cur.cache_hits <- 0;
  cur.cache_misses <- 0;
  cur.cache_quarantined <- 0;
  cur.budget_trips <- 0;
  cur.heap_trips <- 0;
  cur.ckpt_funcs <- 0;
  cur.incr_funcs_dirty <- 0;
  cur.incr_funcs_reused <- 0;
  cur.demand_plans <- 0;
  cur.demand_slice_funcs <- 0;
  cur.demand_funcs_total <- 0;
  cur.demand_skipped <- 0;
  cur.demand_replays <- 0;
  cur.demand_fallbacks <- 0;
  cur.ext_modeled <- 0;
  cur.ext_unmodeled <- 0;
  cur.serve_requests <- 0;
  cur.serve_errors <- 0;
  cur.serve_shed <- 0;
  cur.t_map <- 0.;
  cur.t_unmap <- 0.;
  cur.t_analysis <- 0.;
  cur.t_serialize <- 0.;
  cur.t_deserialize <- 0.

let snapshot () =
  let cur = cur () in
  { cur with merges = cur.merges }

(** [add_into ~into m]: accumulate every counter and timer of [m] into
    [into]. Used to aggregate the per-task snapshots of a parallel run
    into one table; times add up to total CPU-seconds across domains,
    not wall-clock. *)
let add_into ~(into : t) (m : t) =
  into.merges <- into.merges + m.merges;
  into.merge_fast <- into.merge_fast + m.merge_fast;
  into.shared_visits <- into.shared_visits + m.shared_visits;
  into.equal_checks <- into.equal_checks + m.equal_checks;
  into.equal_fast <- into.equal_fast + m.equal_fast;
  into.covered_checks <- into.covered_checks + m.covered_checks;
  into.covered_fast <- into.covered_fast + m.covered_fast;
  into.assigns <- into.assigns + m.assigns;
  into.kills <- into.kills + m.kills;
  into.weakens <- into.weakens + m.weakens;
  into.gens <- into.gens + m.gens;
  into.loop_iters <- into.loop_iters + m.loop_iters;
  into.rec_iters <- into.rec_iters + m.rec_iters;
  into.bodies <- into.bodies + m.bodies;
  into.memo_lookups <- into.memo_lookups + m.memo_lookups;
  into.memo_hits <- into.memo_hits + m.memo_hits;
  into.map_calls <- into.map_calls + m.map_calls;
  into.unmap_calls <- into.unmap_calls + m.unmap_calls;
  into.call_reuses <- into.call_reuses + m.call_reuses;
  into.cache_hits <- into.cache_hits + m.cache_hits;
  into.cache_misses <- into.cache_misses + m.cache_misses;
  into.cache_quarantined <- into.cache_quarantined + m.cache_quarantined;
  into.budget_trips <- into.budget_trips + m.budget_trips;
  into.heap_trips <- into.heap_trips + m.heap_trips;
  into.ckpt_funcs <- into.ckpt_funcs + m.ckpt_funcs;
  into.incr_funcs_dirty <- into.incr_funcs_dirty + m.incr_funcs_dirty;
  into.incr_funcs_reused <- into.incr_funcs_reused + m.incr_funcs_reused;
  into.demand_plans <- into.demand_plans + m.demand_plans;
  into.demand_slice_funcs <- into.demand_slice_funcs + m.demand_slice_funcs;
  into.demand_funcs_total <- into.demand_funcs_total + m.demand_funcs_total;
  into.demand_skipped <- into.demand_skipped + m.demand_skipped;
  into.demand_replays <- into.demand_replays + m.demand_replays;
  into.demand_fallbacks <- into.demand_fallbacks + m.demand_fallbacks;
  into.ext_modeled <- into.ext_modeled + m.ext_modeled;
  into.ext_unmodeled <- into.ext_unmodeled + m.ext_unmodeled;
  into.serve_requests <- into.serve_requests + m.serve_requests;
  into.serve_errors <- into.serve_errors + m.serve_errors;
  into.serve_shed <- into.serve_shed + m.serve_shed;
  into.t_map <- into.t_map +. m.t_map;
  into.t_unmap <- into.t_unmap +. m.t_unmap;
  into.t_analysis <- into.t_analysis +. m.t_analysis;
  into.t_serialize <- into.t_serialize +. m.t_serialize;
  into.t_deserialize <- into.t_deserialize +. m.t_deserialize

let sum (ms : t list) : t =
  let acc = create () in
  List.iter (fun m -> add_into ~into:acc m) ms;
  acc

(* Phase timers are always differences of two readings, so they come
   from the monotonic clock: a system clock step must not corrupt a
   recorded duration. *)
let now () = Mono.now_s ()

let ratio num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

(* The --stats report as (label, rendered value) rows. The labels
   between the two markers below are a contract checked by
   scripts/check_cli_docs.sh: every label must appear (backticked) in
   docs/CLI.md, and the script extracts them textually — keep the
   markers and the [("label", value)] shape of each row. *)
(* BEGIN stats-labels *)
let rows (m : t) : (string * string) list =
  [
    ( "analysis time",
      Printf.sprintf "%.3f ms (map %.3f ms, unmap %.3f ms)" (m.t_analysis *. 1e3)
        (m.t_map *. 1e3) (m.t_unmap *. 1e3) );
    ("body passes", Printf.sprintf "%d" m.bodies);
    ( "fixpoint iterations",
      Printf.sprintf "%d loop, %d recursion/pending" m.loop_iters m.rec_iters );
    ( "assignments",
      Printf.sprintf "%d (kills %d, weakens %d, gen pairs %d)" m.assigns m.kills
        m.weakens m.gens );
    ( "merges",
      Printf.sprintf "%d (%.1f%% fast-path)" m.merges (ratio m.merge_fast m.merges) );
    ("shared rows", Printf.sprintf "%d statement visits" m.shared_visits);
    ( "equality checks",
      Printf.sprintf "%d (%.1f%% fast-path)" m.equal_checks
        (ratio m.equal_fast m.equal_checks) );
    ( "covering checks",
      Printf.sprintf "%d (%.1f%% fast-path)" m.covered_checks
        (ratio m.covered_fast m.covered_checks) );
    ( "map/unmap calls",
      Printf.sprintf "%d/%d (%d calls reused)" m.map_calls m.unmap_calls m.call_reuses );
    ( "memo hit rate",
      Printf.sprintf "%d/%d (%.1f%%)" m.memo_hits m.memo_lookups
        (ratio m.memo_hits m.memo_lookups) );
    ( "result cache",
      Printf.sprintf "%d hits, %d misses (save %.3f ms, load %.3f ms)" m.cache_hits
        m.cache_misses (m.t_serialize *. 1e3) (m.t_deserialize *. 1e3) );
    ( "robustness",
      Printf.sprintf "%d budget trips (%d heap), %d checkpointed functions, %d cache \
                      entries quarantined" m.budget_trips m.heap_trips m.ckpt_funcs
        m.cache_quarantined );
    ( "incremental",
      Printf.sprintf "%d functions dirty, %d summaries replayed" m.incr_funcs_dirty
        m.incr_funcs_reused );
    ( "demand",
      Printf.sprintf "%d plans (slice %d/%d funcs), %d skipped, %d replayed, %d fallbacks"
        m.demand_plans m.demand_slice_funcs m.demand_funcs_total m.demand_skipped
        m.demand_replays m.demand_fallbacks );
    ( "external calls",
      Printf.sprintf "%d modeled, %d unmodeled" m.ext_modeled m.ext_unmodeled );
    ( "serve traffic",
      Printf.sprintf "%d requests (%d errors, %d shed)" m.serve_requests m.serve_errors
        m.serve_shed );
  ]
(* END stats-labels *)

let labels = List.map fst (rows (create ()))

let pp ppf (m : t) =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (label, value) -> pf ppf "%-22s%s" (label ^ ":") value))
    (rows m)
