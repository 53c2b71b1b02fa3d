(** Structured tracing: timestamped spans for the phases of the
    analysis, attributing wall-clock time to invocation-graph nodes,
    fixpoint iterations, call mapping and the result cache.

    Where {!Metrics} answers "how much work did the run perform",
    [Trace] answers "{e where} did the time go": every instrumented
    region — one invocation-graph node evaluation, one body pass of a
    fixed point, one loop-head iteration, one [map_call]/[unmap_call],
    one cache load/store, one pool task — records a {!span} carrying
    the function name, the context digest and the points-to set sizes
    involved. Spans can be exported as Chrome trace-event JSON (open in
    {{:https://ui.perfetto.dev}Perfetto} or [about://tracing]) or
    aggregated into a self-profile table ({!pp_profile}).

    Tracing is {e off} by default and the disabled path is a single
    atomic load per instrumentation site ({!start} returns without
    reading the clock), so the hot paths of the engine stay unperturbed
    — the bench harness guards this and the test suite asserts analysis
    results are bit-identical with tracing on and off.

    Domain safety mirrors {!Metrics}: each domain appends to its own
    ring buffer (via [Domain.DLS]), so {!Pool} workers never contend;
    {!collect} merges the rings of every domain that recorded spans.
    Collect only while no worker is actively tracing (e.g. after
    {!Pool.with_pool} has returned, which joins the workers). *)

(** What an instrumented region was doing. *)
type kind =
  | Analysis  (** one whole {!Analysis.analyze} run *)
  | Node  (** evaluation of one invocation-graph node (Figure 4) *)
  | Body  (** one pass over a function body (a fixpoint iteration of a
              recursive node re-records this span) *)
  | Loop  (** one loop-head fixed-point iteration (Figure 1) *)
  | Map  (** {!Map_unmap.map_call} at a call site *)
  | Unmap  (** {!Map_unmap.unmap_call} back from a callee *)
  | Cache_load  (** {!Persist.load} of a persisted result *)
  | Cache_store  (** {!Persist.save} of a result *)
  | Task  (** one task executed by a {!Pool} domain *)
  | Widen
      (** the graceful-degradation rerun of an analysis whose budget was
          exhausted ({!Guard}) — wraps the whole widened pass *)
  | Request  (** one {!Serve} protocol request, parse to reply *)
  | Dirty
      (** incremental re-analysis: the content-hash diff and dirty-set
          computation over the persisted summaries ({!Persist}) *)
  | Replay
      (** incremental re-analysis: one memoized (input, output) pair
          served from a persisted summary instead of a body fixpoint *)
  | Slice
      (** demand mode: one {!Demand.plan} computation (the invocation-
          graph slice for a query's seed function) *)
  | Demand
      (** demand mode: one whole {!Analysis.analyze_demand} run over a
          planned slice *)
  | Checkpoint
      (** graceful degradation: the snapshot of the aborted precise
          run's partial per-function IN/OUT state, taken when a
          {!Guard} budget trips and seeded into the widened rerun
          ([sp_stmts] carries the number of seeded function slots) *)
  | Oom
      (** a {!Guard} heap-ceiling trip ([--max-heap-mb]): the precise
          run exceeded its memory budget and degraded instead of dying
          ([sp_in] carries the sampled heap size in MB) *)

val kind_name : kind -> string
(** Lower-case stable name ([node], [map], [cache-load], ...); used as
    the [cat] field of the JSON export and in the profile table. *)

type span = {
  sp_kind : kind;
  sp_name : string;  (** function name, file, or phase label *)
  sp_ctx : int;
      (** context digest — {!Pts.hash} of the mapped input for [Node]
          spans, 0 when not applicable *)
  sp_dom : int;  (** id of the domain that recorded the span *)
  sp_t0 : float;  (** start, monotonic seconds ({!Mono.now_s}) *)
  sp_t1 : float;  (** end, monotonic seconds *)
  sp_stmts : int;  (** statements in the processed body, 0 if n/a *)
  sp_in : int;  (** cardinality of the input points-to set, -1 if n/a *)
  sp_out : int;  (** cardinality of the output points-to set, -1 if n/a *)
}

(** {1 Sink control} *)

val on : unit -> bool
(** Whether spans are being recorded. One atomic load — this is the
    whole cost of an instrumentation site while tracing is disabled. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording, with [capacity] spans per domain (default
    [1 lsl 20]). Spans past the capacity are dropped (newest-first) and
    counted in {!dropped}. Enabling does not clear previous spans; call
    {!clear} for a fresh recording. *)

val disable : unit -> unit

val clear : unit -> unit
(** Drop every recorded span and reset the drop counts of all domains.
    Call only while no other domain is recording. *)

(** {1 Recording} *)

val start : unit -> float
(** The clock value to pass to {!emit} as [t0] — or [0.] when tracing
    is disabled, in which case the matching {!emit} is a no-op (so a
    region enabled mid-span is never half-recorded). *)

val emit :
  kind ->
  name:string ->
  ?ctx:int ->
  ?stmts:int ->
  ?pts_in:int ->
  ?pts_out:int ->
  t0:float ->
  unit ->
  unit
(** Record the span that began at [t0] (from {!start}) and ends now,
    into the calling domain's ring. No-op when disabled or [t0 = 0.].
    Call sites should guard with [if Trace.on () then ...] so argument
    construction also costs nothing when disabled. *)

(** {1 Collection} *)

val collect : unit -> span list
(** Every span recorded since the last {!clear}, grouped by domain in
    registration order; within one domain, spans appear in completion
    (end-time) order, so a span's children always precede it. *)

val dropped : unit -> int
(** Spans dropped across all domains since the last {!clear} because a
    ring reached capacity. *)

(** {1 Export: Chrome trace-event JSON} *)

val json_string : span list -> string
(** The spans as a Chrome trace-event JSON object
    ([{"traceEvents": [...], ...}]): one complete ("ph":"X") event per
    span with microsecond [ts]/[dur] relative to the earliest span, the
    domain as [tid], and name/context/sizes in [args]. Loadable in
    Perfetto and [about://tracing]. See docs/OBSERVABILITY.md for the
    schema. *)

val save_json : string -> span list -> unit
(** Write {!json_string} to a file. *)

(** {1 Self-profile} *)

type prof_row = {
  pr_kind : kind;
  pr_name : string;
  pr_count : int;  (** spans aggregated into this row *)
  pr_cum : float;  (** cumulative seconds (sum of span durations) *)
  pr_self : float;
      (** self seconds: cumulative minus time in nested spans *)
}

val profile : span list -> prof_row list
(** Spans aggregated by (kind, name). Self time subtracts the duration
    of directly nested spans (same domain), so the self column of all
    rows sums to the root spans' cumulative time. *)

val coverage : span list -> float
(** Fraction (0–1) of the traced wall-clock covered by root spans: per
    domain, the summed duration of spans with no enclosing span over
    the extent from first span start to last span end. 1.0 when there
    are no spans. *)

val iteration_histogram : span list -> kind * kind -> (int * int) list
(** [iteration_histogram spans (outer, inner)]: for every [outer] span,
    count the [inner] spans directly nested in it; returns the sorted
    [(count, spans-with-that-count)] histogram. Used with
    [(Node, Body)] (recursion fixpoint re-evaluations per node) and
    [(Body, Loop)] (loop-head iterations per body pass). *)

val pp_profile : ?top:int -> Format.formatter -> span list -> unit
(** The self-profile report: span totals and coverage, the top-[top]
    (default 15) rows by cumulative and by self time, and the fixpoint
    iteration histograms. *)
