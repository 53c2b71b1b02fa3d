(** The one measurement core every workload uses: a monotonic timer
    that charges wall time and GC deltas to a named layer, the
    order statistics the report is made of, the process high-water
    mark, and the result line. *)

let now = Pointsto.Mono.now_s

(** Work charged to one layer: calls, wall seconds and the GC activity
    that happened inside those calls. *)
type layer = {
  mutable calls : int;
  mutable secs : float;
  mutable alloc_words : float;
  mutable minor : int;
  mutable major : int;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; secs = 0.; alloc_words = 0.; minor = 0; major = 0 } in
      Hashtbl.replace layers name l;
      l

(** [time name f] runs [f], charges its wall time and GC deltas to
    layer [name], and returns the result with the elapsed seconds.
    The GC is sampled outside the clock readings. *)
let time name f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let l = layer name in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  l.calls <- l.calls + 1;
  l.secs <- l.secs +. (t1 -. t0);
  l.alloc_words <- l.alloc_words +. (words g1 -. words g0);
  l.minor <- l.minor + (g1.minor_collections - g0.minor_collections);
  l.major <- l.major + (g1.major_collections - g0.major_collections);
  (r, t1 -. t0)

let layer_ms name = (layer name).secs *. 1e3

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

module Trace = Pointsto.Trace

(** Spans dropped by the ring over the whole run; a traced run with any
    drop is incomplete and fails. *)
let dropped = ref 0

(** [traced f] runs [f] with the engine's {!Trace} sink on and returns
    its result with the span profile summed by kind: kind name ->
    (self seconds, cumulative seconds, span count). The sink is
    emptied before and after, so one traced call never sees another's
    spans. *)
let traced f =
  Trace.clear ();
  Trace.enable ~capacity:(1 lsl 22) ();
  let r = Fun.protect ~finally:Trace.disable f in
  dropped := !dropped + Trace.dropped ();
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun (row : Trace.prof_row) ->
      let k = Trace.kind_name row.pr_kind in
      let s, c, n = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt by_kind k) in
      Hashtbl.replace by_kind k (s +. row.pr_self, c +. row.pr_cum, n + row.pr_count))
    (Trace.profile (Trace.collect ()));
  Trace.clear ();
  (r, by_kind)

(** Sum [src]'s by-kind rows into [into]. *)
let add_kinds ~into src =
  Hashtbl.iter
    (fun k (s, c, n) ->
      let s0, c0, n0 = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt into k) in
      Hashtbl.replace into k (s0 +. s, c0 +. c, n0 + n))
    src

let kind_self_ms kinds k =
  match Hashtbl.find_opt kinds k with Some (s, _, _) -> s *. 1e3 | None -> 0.

let kind_cum_ms kinds k =
  match Hashtbl.find_opt kinds k with Some (_, c, _) -> c *. 1e3 | None -> 0.

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The highest order statistic with at least ten samples beyond it,
    with its percentile and the sample count. Below 11 samples no
    percentile qualifies and the maximum is returned as p100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 100., 0)
  else if n < 11 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(* ------------------------------------------------------------------ *)
(* Process memory                                                     *)
(* ------------------------------------------------------------------ *)

let status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when String.equal k field ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)

(** Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match status_kb pid "VmHWM" with Some kb -> float_of_int kb /. 1024. | None -> nan

(** Restart this process's VmHWM from its current RSS, so a peak taken
    after set-up covers only the measured phase. No-op where the
    kernel refuses. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

(** Metrics of one run, in report order: (name, value, unit). *)
let metrics : (string * float * string) list ref = ref []

let metric name unit value = metrics := (name, value, unit) :: !metrics

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(** Count one checked operation; a failing one is kept for the report. *)
let check ok fmt =
  Format.kasprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        if List.length !failures < 20 then failures := what :: !failures
      end)
    fmt

let note fmt = Format.kasprintf (fun s -> print_endline s) fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(** Human-readable lines, then the one-line JSON result last. A
    non-finite value is a failed run: it cannot be compared. *)
let print_result () =
  let ms = List.rev !metrics in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then check false "metric %s is not a number" n)
    ms;
  List.iter (fun (n, v, u) -> note "%-28s %14s %s" n (json_number v) u) ms;
  List.iter (fun f -> note "FAILED: %s" f) (List.rev !failures);
  note "failed_frac %d/%d = %.4f" !failed !attempted
    (if !attempted = 0 then 1. else float_of_int !failed /. float_of_int !attempted);
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (json_number (if Float.is_finite v then v else 0.))
          u)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed (String.concat ", " body)
