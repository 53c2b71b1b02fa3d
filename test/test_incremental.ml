(** Tests for incremental re-analysis ({!Pointsto.Persist} with
    [~incremental:true]): function-granularity content hashing, the
    dirty rule, summary replay, and — above all — the bit-identity
    contract: an incremental run after an edit must produce exactly the
    tables a cold run of the edited source produces. Anything less and
    the cache would be a source of wrong answers.

    Layers under test, bottom-up: {!Persist.func_hash} (position
    normalization), {!Persist.eligible_funcs} (the dirty rule),
    [analyze_cached ~incremental] end-to-end (cone re-analysis with
    exact counter assertions, the whole benchmark suite bit-identical
    after edits), and the corruption path (truncated [.pti] files
    quarantine and fall back to a cold run). *)

open Test_util
module Ig = Pointsto.Invocation_graph
module Persist = Pointsto.Persist
module Options = Pointsto.Options
module Metrics = Pointsto.Metrics

let bench_dir = if Sys.file_exists "benchmarks" then "benchmarks" else "../benchmarks"

let bench name = Filename.concat bench_dir (name ^ ".c")

let temp_dir () =
  let d = Filename.temp_file "ptan-incr" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let in_temp f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_to path s = write_file path (read_file path ^ s)

(** First occurrence of [sub] in [s], or [None]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.equal (String.sub s i m) sub then Some i else go (i + 1)
  in
  go 0

let replace_once ~sub ~by s =
  match find_sub s sub with
  | None -> Alcotest.failf "edit anchor %S not found" sub
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

(** The full query surface an incremental run must reproduce
    bit-identically: per-statement sets, entry output, warnings, and the
    invocation graph (shape, kinds, stored pairs). *)
let row_strings tbl =
  Hashtbl.fold (fun id s acc -> (id, Pts.to_string s) :: acc) tbl [] |> List.sort compare

let stmt_pts_strings (res : Analysis.result) = row_strings res.Analysis.stmt_pts

let check_identical name (cold : Analysis.result) (incr : Analysis.result) =
  Alcotest.(check (list (pair int string)))
    (name ^ ": per-statement points-to sets")
    (stmt_pts_strings cold) (stmt_pts_strings incr);
  Alcotest.(check string)
    (name ^ ": entry output")
    (Fmt.str "%a" Pts.pp_state cold.Analysis.entry_output)
    (Fmt.str "%a" Pts.pp_state incr.Analysis.entry_output);
  Alcotest.(check (list string))
    (name ^ ": warnings") cold.Analysis.warnings incr.Analysis.warnings;
  Alcotest.(check string)
    (name ^ ": invocation graph")
    (Fmt.str "%a" Ig.pp cold.Analysis.graph)
    (Fmt.str "%a" Ig.pp incr.Analysis.graph)

(* ------------------------------------------------------------------ *)
(* The diff oracle: func_hash and eligible_funcs                       *)
(* ------------------------------------------------------------------ *)

(** A function moved around the file (statement ids and locations all
    shifted) must hash identically; a body edit must not. *)
let hash_tests =
  [
    case "func_hash ignores statement ids and source positions" (fun () ->
        let tail = "void f(int **q) { int *p; p = *q; *q = p; }" in
        let p1 = simplify ("int main(void) { return 0; }\n" ^ tail) in
        let p2 =
          simplify
            ("int g1; int g2;\nint main(void) { int a; int b; a = 0; b = a; return b; }\n\n"
           ^ tail)
        in
        let fn p =
          match Ir.find_func p "f" with Some f -> f | None -> Alcotest.fail "no f"
        in
        Alcotest.(check bool)
          "same body, shifted ids: equal hashes" true
          (String.equal (Persist.func_hash (fn p1)) (Persist.func_hash (fn p2)));
        let p3 = simplify ("int main(void) { return 0; }\nvoid f(int **q) { int *p; p = *q; }") in
        Alcotest.(check bool)
          "edited body: different hash" false
          (String.equal (Persist.func_hash (fn p1)) (Persist.func_hash (fn p3))));
    case "eligible_funcs: dirty cone is the edited function plus its callers" (fun () ->
        let src ~edited =
          "int ga; int gb; int gc;\nint *pa; int *pb; int *pc;\n\
           void leaf1(void) { pa = &ga; }\n\
           void a(void) { leaf1(); }\n"
          ^ (if edited then "void b(void) { int t; t = 0; pb = &gb; }\n"
             else "void b(void) { pb = &gb; }\n")
          ^ "void c(void) { pc = &gc; }\n\
             int main(void) { a(); b(); c(); return 0; }\n"
        in
        let old_prog = simplify (src ~edited:false) in
        let new_prog = simplify (src ~edited:true) in
        let old_hashes = Hashtbl.create 8 in
        List.iter
          (fun f -> Hashtbl.replace old_hashes f.Ir.fn_name (Persist.func_hash f))
          old_prog.Ir.funcs;
        let elig = Persist.eligible_funcs new_prog ~old_hashes in
        let names =
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        Alcotest.(check (list string))
          "replayable = untouched subtrees" [ "a"; "c"; "leaf1" ] names);
    case "eligible_funcs: indirect call sites poison their whole closure" (fun () ->
        let src =
          "int g; int *p;\n\
           void tgt(void) { p = &g; }\n\
           void hub(void (*fp)(void)) { fp(); }\n\
           void quiet(void) { p = &g; }\n\
           int main(void) { hub(tgt); quiet(); return 0; }\n"
        in
        let prog = simplify src in
        let old_hashes = Hashtbl.create 8 in
        List.iter
          (fun f -> Hashtbl.replace old_hashes f.Ir.fn_name (Persist.func_hash f))
          prog.Ir.funcs;
        (* nothing edited, yet hub (indirect site) and main (calls hub)
           must stay dirty; tgt and quiet replay *)
        let elig = Persist.eligible_funcs prog ~old_hashes in
        let names =
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        Alcotest.(check (list string)) "fp-free subtrees only" [ "quiet"; "tgt" ] names);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: analyze_cached ~incremental                             *)
(* ------------------------------------------------------------------ *)

let cone_src_v1 =
  "int ga; int gb; int gc;\nint *pa; int *pb; int *pc;\n\
   void leaf1(void) { pa = &ga; }\n\
   void a(void) { leaf1(); }\n\
   void b(void) { pb = &gb; }\n\
   void c(void) { pc = &gc; }\n\
   int main(void) { a(); b(); c(); return 0; }\n"

let cone_src_v2 =
  replace_once ~sub:"void b(void) { pb = &gb; }"
    ~by:"void b(void) { int t; t = 0; pb = &gb; }" cone_src_v1

let cone_tests =
  [
    case "a one-function edit re-analyzes exactly its cone" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let r1, hit1 = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "cold run misses" false hit1;
            Alcotest.(check int)
              "cold run: everything dirty" 5
              r1.Analysis.metrics.Metrics.incr_funcs_dirty;
            write_file source cone_src_v2;
            let r2, hit2 = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "edited source is not a full hit" false hit2;
            (* dirty = b (edited) + main (calls b); a, leaf1, c replay.
               Replays happen at main's calls to a and c — leaf1 is
               covered by a's frame and never visited at all. *)
            Alcotest.(check int)
              "dirty cone is {main, b}" 2 r2.Analysis.metrics.Metrics.incr_funcs_dirty;
            Alcotest.(check int)
              "a and c replay from summaries" 2
              r2.Analysis.metrics.Metrics.incr_funcs_reused;
            let cold = Analysis.of_file source in
            check_identical "cone" cold r2));
    case "unchanged source is a plain full hit" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "full hit" true hit;
            Alcotest.(check int) "hit recorded" 1 r.Analysis.metrics.Metrics.cache_hits));
    case "changed options invalidate the incremental entry wholesale" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let opts = { Options.default with Options.max_sym_depth = 2 } in
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int)
              "nothing replays across an options change" 0
              r.Analysis.metrics.Metrics.incr_funcs_reused));
  ]

(** Every benchmark: populate the incremental cache, append a trailing
    comment (content key changes, no function hash does), re-analyze
    incrementally, and demand bit-identity with a cold run of the edited
    copy. This is the suite-wide soundness gate from docs/INCREMENTAL.md. *)
let suite_names =
  [
    "genetic"; "dry"; "clinpack"; "config"; "toplev"; "compress"; "mway"; "hash";
    "misr"; "xref"; "stanford"; "fixoutput"; "sim"; "travel"; "csuite"; "msc"; "lws";
    "livc";
  ]

let suite_tests =
  [
    case "whole suite: comment edit rekeys bit-identically" (fun () ->
        (* a trailing comment leaves the lowered program byte-identical,
           so the saved body is still the answer: the rekey fast path
           serves it as a hit with 0 dirty functions *)
        List.iter
          (fun name ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (read_file (bench name));
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                append_to source "\n/* trailing edit */\n";
                let r, hit =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (name ^ ": rekeyed entry is a hit") true hit;
                Alcotest.(check int)
                  (name ^ ": nothing dirty") 0
                  r.Analysis.metrics.Metrics.incr_funcs_dirty;
                check_identical name (Analysis.of_file source) r;
                (* the rekeyed entry must itself read back as a full hit *)
                let r2, hit2 =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (name ^ ": rekeyed file reloads") true hit2;
                check_identical (name ^ " reloaded") r r2))
          suite_names);
    case "whole suite: adding a function replays bit-identically" (fun () ->
        (* a new (uncalled) function changes the hash table, so the
           rekey path is off and the clean subtrees replay from
           summaries while the fp-touching slice re-runs *)
        List.iter
          (fun name ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (read_file (bench name));
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                append_to source "\nvoid ptan_probe_added(void) { }\n";
                let r, hit =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (name ^ ": not a full hit") false hit;
                let n_funcs = List.length r.Analysis.prog.Ir.funcs in
                Alcotest.(check bool)
                  (name ^ ": the new function is dirty, the suite is not")
                  true
                  (r.Analysis.metrics.Metrics.incr_funcs_dirty >= 1
                  && r.Analysis.metrics.Metrics.incr_funcs_dirty < n_funcs);
                check_identical name (Analysis.of_file source) r))
          suite_names);
    case "livc: a real one-kernel edit stays bit-identical" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "livc.c" in
            write_file source (read_file (bench "livc"));
            let r1, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let n_funcs = List.length r1.Analysis.prog.Ir.funcs in
            write_file source
              (replace_once ~sub:"double kern_a_5(void) { int i;"
                 ~by:"double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;"
                 (read_file source));
            let r2, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool)
              "most of livc replays" true
              (r2.Analysis.metrics.Metrics.incr_funcs_reused > n_funcs / 2);
            Alcotest.(check bool)
              "only a sliver is dirty" true
              (r2.Analysis.metrics.Metrics.incr_funcs_dirty * 4 < n_funcs);
            check_identical "livc edited" (Analysis.of_file source) r2));
  ]

(* ------------------------------------------------------------------ *)
(* Corruption: truncated v3 entries quarantine and fall back cold      *)
(* ------------------------------------------------------------------ *)

let corruption_tests =
  [
    case "truncated incremental entries quarantine and re-analyze cold" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "dry.c" in
            write_file source (read_file (bench "dry"));
            let cold = Analysis.of_file source in
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                ~entry:"main"
            in
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let data = read_file pti in
            let n = String.length data in
            List.iter
              (fun cut ->
                write_file pti (String.sub data 0 cut);
                let r, hit =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (Fmt.str "cut@%d: miss" cut) false hit;
                Alcotest.(check int)
                  (Fmt.str "cut@%d: quarantined" cut)
                  1 r.Analysis.metrics.Metrics.cache_quarantined;
                Alcotest.(check int)
                  (Fmt.str "cut@%d: nothing replayed" cut)
                  0 r.Analysis.metrics.Metrics.incr_funcs_reused;
                check_identical (Fmt.str "cut@%d" cut) cold r)
              [ 3; n / 4; n / 2; (3 * n) / 4; n - 1 ];
            (* the victims were kept for post-mortem, never clobbered *)
            let bad =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> find_sub f ".bad" <> None)
            in
            Alcotest.(check int) "every victim kept" 5 (List.length bad)));
  ]

(* ------------------------------------------------------------------ *)
(* The summary DAG                                                     *)
(* ------------------------------------------------------------------ *)

module Engine = Pointsto.Engine

(** The single entry [fn] has in a summary table. *)
let only_entry (tbl : Engine.summaries) fn =
  match Hashtbl.find_opt tbl fn with
  | None -> Alcotest.failf "no summary of %s" fn
  | Some by_hash -> (
      match Hashtbl.fold (fun _ es acc -> es @ acc) by_hash [] with
      | [ e ] -> e
      | es -> Alcotest.failf "%d summaries of %s" (List.length es) fn)

let check_flattens name (e : Engine.summary_entry) (res : Analysis.result) =
  Alcotest.(check (list (pair int string)))
    (name ^ ": flattened DAG = per-statement table")
    (stmt_pts_strings res)
    (row_strings (Engine.flatten res.Analysis.tenv e))

(** The corpus shapes (docs/CORPUS.md) at test size. *)
let shapes =
  let k = { Gen.default with Gen.size = 600 } in
  [
    ("deep", { k with Gen.seed = 23; depth = 7; fnptr_density = 0; structs = 50 });
    ("knot", { k with Gen.seed = 37; depth = 4; fnptr_density = 15; recursion = 30 });
    ("web", { k with Gen.seed = 11; depth = 4; fnptr_density = 30 });
  ]

(* Generated mains all start with the same three assignments. *)
let edit_main ~by text = replace_once ~sub:"    r = 0;\n" ~by:("    r = 0;\n" ^ by) text

let dag_tests =
  [
    case "main's summary DAG flattens to the table, live and persisted" (fun () ->
        List.iter
          (fun (name, knobs) ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (Gen.program knobs);
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                let live = r.Analysis.summaries in
                check_flattens (name ^ " live") (only_entry live "main") r;
                match
                  Persist.load_summaries ~cache_dir:dir ~source ~opts:Options.default
                    r.Analysis.prog
                with
                | None -> Alcotest.failf "%s: no persisted summaries" name
                | Some tbl ->
                    (* deep has no indirect calls, so every function, main
                       included, is eligible; in knot and web the loaded
                       entries are those below the indirect call sites *)
                    if name = "deep" then
                      check_flattens (name ^ " persisted") (only_entry tbl "main") r;
                    let n = ref 0 in
                    Hashtbl.iter
                      (fun fn by_hash ->
                        Hashtbl.iter
                          (fun _ es ->
                            List.iter
                              (fun (e : Engine.summary_entry) ->
                                incr n;
                                match Engine.summaries_find live fn e.Engine.se_in with
                                | None -> Alcotest.failf "%s: %s has no live entry" name fn
                                | Some l ->
                                    Alcotest.(check (list (pair int string)))
                                      (Fmt.str "%s: %s persisted = live" name fn)
                                      (row_strings (Engine.flatten r.Analysis.tenv l))
                                      (row_strings (Engine.flatten r.Analysis.tenv e)))
                              es)
                          by_hash)
                      tbl;
                    Alcotest.(check bool) (name ^ ": summaries load") true (!n > 0)))
          shapes);
    case "edits to main replay the rest from the persisted DAG" (fun () ->
        List.iter
          (fun (name, knobs) ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (Gen.program knobs);
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                (* the second edit replays entries the first run carried
                   forward from the DAG it replayed *)
                List.iteri
                  (fun i by ->
                    write_file source (edit_main ~by (read_file source));
                    let r, _ =
                      Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                    in
                    let m = r.Analysis.metrics in
                    let what = Fmt.str "%s edit %d" name i in
                    if name = "deep" then
                      Alcotest.(check int) (what ^ ": only main is dirty") 1
                        m.Metrics.incr_funcs_dirty;
                    Alcotest.(check bool) (what ^ ": summaries replay") true
                      (m.Metrics.incr_funcs_reused > 0);
                    check_identical what (Analysis.of_file source) r)
                  [ "    q = &r;\n"; "    q = &x;\n" ]))
          shapes);
    case "a replaying edit saves exactly the summaries a cold run records" (fun () ->
        let keys (tbl : Engine.summaries) =
          Hashtbl.fold
            (fun fn by_hash acc ->
              Hashtbl.fold
                (fun _ es acc ->
                  List.fold_left (fun acc e -> (fn, Pts.to_string e.Engine.se_in) :: acc) acc es)
                by_hash acc)
            tbl []
          |> List.sort compare
        in
        let unreached = ref 0 in
        List.iter
          (fun (name, knobs) ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (Gen.program knobs);
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                write_file source (edit_main ~by:"    q = &gv0;\n" (read_file source));
                let prog = Simple_ir.Simplify.of_file source in
                let load () =
                  match
                    Persist.load_summaries ~cache_dir:dir ~source ~opts:Options.default prog
                  with
                  | Some tbl -> keys tbl
                  | None -> Alcotest.failf "%s: no persisted summaries" name
                in
                let seeded = load () in
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                Alcotest.(check bool) (name ^ ": summaries replay") true
                  (r.Analysis.metrics.Metrics.incr_funcs_reused > 0);
                let cold = keys (Analysis.analyze ~record_summaries:true prog).Analysis.summaries in
                Alcotest.(check (list (pair string string)))
                  (name ^ ": saved keys = cold keys") cold (keys r.Analysis.summaries);
                unreached :=
                  !unreached + List.length (List.filter (fun k -> not (List.mem k cold)) seeded);
                (* read back: the file holds the same keys, restricted
                   to the functions that may replay *)
                let old_hashes = Hashtbl.create 64 in
                List.iter
                  (fun f -> Hashtbl.replace old_hashes f.Ir.fn_name (Persist.func_hash f))
                  prog.Ir.funcs;
                let elig = Persist.eligible_funcs prog ~old_hashes in
                Alcotest.(check (list (pair string string)))
                  (name ^ ": reloaded keys = cold keys")
                  (List.filter (fun (fn, _) -> Hashtbl.mem elig fn) cold)
                  (load ())))
          shapes;
        (* saving the whole table would have carried these along *)
        Alcotest.(check bool) "some seeded entries go unreached" true (!unreached > 0));
    case "without context sharing an incremental edit records and replays nothing" (fun () ->
        let opts = { Options.default with Options.share_contexts = false } in
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let r1, _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
            Alcotest.(check int) "nothing recorded" 0 (Hashtbl.length r1.Analysis.summaries);
            write_file source cone_src_v2;
            let r2, hit = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int) "nothing replayed" 0
              r2.Analysis.metrics.Metrics.incr_funcs_reused;
            let cold = Analysis.of_file ~opts source in
            check_identical "no sharing" cold r2;
            Alcotest.(check int) "same body passes" cold.Analysis.bodies_analyzed
              r2.Analysis.bodies_analyzed));
    case "a diamond's shared callee entry is referenced, not copied, and applied once"
      (fun () ->
        let src =
          "int g; int *p;\n\
           void d(int *x) { int *l; l = x; }\n\
           void a(void) { d(&g); }\n\
           void b(void) { d(&g); }\n\
           int main(void) { a(); b(); p = &g; return 0; }\n"
        in
        let r = Analysis.analyze ~record_summaries:true (simplify src) in
        let tbl = r.Analysis.summaries in
        let ea = only_entry tbl "a" and eb = only_entry tbl "b" and ed = only_entry tbl "d" in
        let shares e = List.exists (fun k -> k == ed) e.Engine.se_kids in
        Alcotest.(check bool) "a and b reference the one entry of d" true
          (shares ea && shares eb);
        let ctx = Engine.make_ctx (Pointsto.Tenv.make ~opts:Options.default r.Analysis.prog) in
        Alcotest.(check int) "replaying a applies a and d" 2 (Engine.apply_entry ctx ea);
        Alcotest.(check int) "replaying b then applies b alone" 1 (Engine.apply_entry ctx eb);
        Alcotest.(check int) "a second replay applies nothing" 0 (Engine.apply_entry ctx ea);
        let expected = Engine.flatten r.Analysis.tenv ea in
        Hashtbl.iter
          (fun sid s ->
            Hashtbl.replace expected sid
              (match Hashtbl.find_opt expected sid with Some o -> Pts.merge o s | None -> s))
          (Engine.flatten r.Analysis.tenv eb);
        Alcotest.(check (list (pair int string)))
          "the replayed rows are a's and b's" (row_strings expected)
          (row_strings ctx.Engine.stmt_pts);
        in_temp (fun dir ->
            let source = Filename.concat dir "diamond.c" in
            write_file source src;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            (match
               Persist.load_summaries ~cache_dir:dir ~source ~opts:Options.default
                 (simplify src)
             with
            | None -> Alcotest.fail "no persisted summaries"
            | Some tbl ->
                let kids fn = (only_entry tbl fn).Engine.se_kids in
                Alcotest.(check bool) "the loaded DAG still shares d" true
                  (match (kids "a", kids "b") with [ x ], [ y ] -> x == y | _ -> false));
            write_file source (replace_once ~sub:"p = &g;" ~by:"p = &g; p = 0;" src);
            let r2, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check int) "only main is dirty" 1
              r2.Analysis.metrics.Metrics.incr_funcs_dirty;
            Alcotest.(check int) "a and b replay; d comes with them" 2
              r2.Analysis.metrics.Metrics.incr_funcs_reused;
            check_identical "diamond" (Analysis.of_file source) r2));
    case "a reused invocation-graph node still counts toward its parent's summary" (fun () ->
        (* par's node runs twice in gp's loop, with two inputs; c's node
           sees the same input both times, so the second evaluation of
           par reuses it without evaluating c. That evaluation's summary
           must still reach c's rows: after the edit, gp calls par only
           with the second input, and replaying par must reproduce them. *)
        let prelude =
          "int g1; int g2; int x; int *q; int k;\n\
           void c(void) { q = &x; }\n\
           void par(int *a) { int *l; l = a; q = &x; c(); }\n"
        in
        let v1 = "void gp(void) { int *t; t = &g1; while (k) { par(t); t = &g2; } }\n" in
        let v2 =
          "void gp(void) { int *t; if (k) t = &g1; else t = &g2; if (k) q = &x; par(t); }\n"
        in
        let main = "int main(void) { gp(); return 0; }\n" in
        in_temp (fun dir ->
            let source = Filename.concat dir "reuse.c" in
            write_file source (prelude ^ v1 ^ main);
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            write_file source (prelude ^ v2 ^ main);
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check int) "par replays" 1 r.Analysis.metrics.Metrics.incr_funcs_reused;
            check_identical "reuse" (Analysis.of_file source) r));
    case "an entry of the previous format version is quarantined and refilled" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                ~entry:"main"
            in
            let data = read_file pti in
            (* the magic, then the version as a one-byte varint *)
            Alcotest.(check int) "version byte" Persist.version (Char.code data.[5]);
            write_file pti
              (String.sub data 0 5
              ^ String.make 1 (Char.chr (Persist.version - 1))
              ^ String.sub data 6 (String.length data - 6));
            (* an edit: read as current, the entry would replay *)
            write_file source cone_src_v2;
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int) "quarantined" 1 r.Analysis.metrics.Metrics.cache_quarantined;
            Alcotest.(check int) "nothing replayed" 0 r.Analysis.metrics.Metrics.incr_funcs_reused;
            check_identical "old version" (Analysis.of_file source) r;
            Alcotest.(check bool) "old entry kept for post-mortem" true
              (Sys.file_exists (pti ^ ".bad"));
            let _, hit2 = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "refilled entry is a full hit" true hit2));
  ]

let suite =
  ("incremental", hash_tests @ cone_tests @ suite_tests @ corruption_tests @ dag_tests)
