(** Shared statement rows ({!Pointsto.Tenv.reps}): which statements
    share a representative's per-statement row, and that sharing is
    exact — the tables equal those of a run that records every
    statement, and each shared row is physically its representative's. *)

open Test_util
module Tenv = Pointsto.Tenv
module Engine = Pointsto.Engine
module Ig = Pointsto.Invocation_graph

(* A name per statement kind: calls by callee, assignments by target
   (and constant), control statements by keyword. *)
let label (s : Ir.stmt) =
  match s.Ir.s_desc with
  | Ir.Scall (_, Ir.Cdirect f, _) -> f
  | Ir.Scall (_, Ir.Cindirect _, _) -> "indirect"
  | Ir.Sassign (l, Ir.Rconst (Some v)) -> Fmt.str "%s=%Ld" l.Ir.r_base v
  | Ir.Sassign (l, _) -> l.Ir.r_base ^ "="
  | Ir.Sif _ -> "if"
  | Ir.Sloop { Ir.l_kind = `While; _ } -> "while"
  | Ir.Sloop { Ir.l_kind = `For; _ } -> "for"
  | Ir.Sloop { Ir.l_kind = `Do; _ } -> "do"
  | Ir.Sswitch _ -> "switch"
  | Ir.Sbreak -> "break"
  | Ir.Scontinue -> "continue"
  | Ir.Sreturn _ -> "return"

(** Every statement in textual order, as "label" or "label<-rep". *)
let rendered_reps (p : Ir.program) =
  let tenv = Tenv.make p in
  let by_id = Hashtbl.create 64 in
  Ir.fold_program (fun () s -> Hashtbl.replace by_id s.Ir.s_id (label s)) () p;
  Ir.fold_program
    (fun acc s ->
      match Hashtbl.find_opt (Lazy.force tenv.Tenv.reps) s.Ir.s_id with
      | None -> label s :: acc
      | Some r -> (label s ^ "<-" ^ Hashtbl.find by_id r) :: acc)
    [] p
  |> List.rev

(* One statement per sharing rule and per non-rule; the undefined
   probes [a1] ... [s2] are external calls without a result, which pass
   their input on unchanged. *)
let rules_src =
  {|int g; int *p; int *q; int n;
    int *ext(void);
    void f(void) { n = 0; }
    int main(void) {
      int x;
      x = 1;
      a1();
      p = &g;
      b1();
      if (x) { c1(); } else { c2(); }
      f();
      d1();
      q = ext();
      e1();
      while (x < cnt()) { w1(); }
      for (x = 0; x < 3; x++) { l1(); }
      switch (x) { case 1: s1(); break; case 2: s2(); break; }
      return 0;
    }|}

let rules_expected =
  [
    "n=0";
    "x=1";
    (* successor of a non-pointer assignment, then of an external call *)
    "a1<-x=1";
    "p=<-x=1";
    (* successor of a pointer assignment *)
    "b1";
    (* the if and the first statement of each branch *)
    "if<-b1";
    "c1<-b1";
    "c2<-b1";
    (* after an if, after a defined call *)
    "f";
    "d1";
    "ext<-d1";
    (* after an external call with a pointer result *)
    "e1";
    (* a loop's condition and body lists start their own rows *)
    "while<-e1";
    "cnt";
    "w1";
    "x=0";
    "for<-x=0";
    "l1";
    (* the for-step list *)
    "x=";
    (* the first switch group shares the switch's input, the second does not *)
    "switch";
    "s1<-switch";
    "break<-switch";
    "s2";
    "break<-s2";
    "return";
  ]

(** The per-statement table of a default run that records every
    statement: the engine under a [Tenv] whose representative map was
    emptied. *)
let recorded_everywhere (p : Ir.program) =
  let tenv = Tenv.make p in
  Hashtbl.reset (Lazy.force tenv.Tenv.reps);
  let main =
    match Tenv.find_func tenv "main" with Some f -> f | None -> Alcotest.fail "no main"
  in
  let graph = Ig.build tenv ~entry:"main" in
  let ctx = Engine.make_ctx tenv in
  ignore (Engine.eval_node ctx graph.Ig.root main (Analysis.initial_input tenv main));
  ctx.Engine.stmt_pts

let check_exact name (p : Ir.program) =
  let r = Analysis.analyze p in
  let full = recorded_everywhere p in
  Alcotest.(check int)
    (name ^ ": same statements recorded") (Hashtbl.length full)
    (Hashtbl.length r.Analysis.stmt_pts);
  Hashtbl.iter
    (fun sid s ->
      match Hashtbl.find_opt r.Analysis.stmt_pts sid with
      | Some s' when Pts.equal s s' -> ()
      | Some _ -> Alcotest.failf "%s: s%d differs from the full recording" name sid
      | None -> Alcotest.failf "%s: s%d missing" name sid)
    full;
  let reps = Lazy.force r.Analysis.tenv.Tenv.reps in
  Hashtbl.iter
    (fun sid rep ->
      match
        (Hashtbl.find_opt r.Analysis.stmt_pts sid, Hashtbl.find_opt r.Analysis.stmt_pts rep)
      with
      | Some a, Some b when a == b -> ()
      | None, None -> ()
      | _ -> Alcotest.failf "%s: s%d is not physically its representative s%d" name sid rep)
    reps;
  Hashtbl.length reps

let suite =
  ( "shared rows",
    [
      case "representatives follow each sharing rule and no other" (fun () ->
          Alcotest.(check (list string))
            "statement <- representative" rules_expected
            (rendered_reps (simplify rules_src)));
      case "the hand-written program's tables equal a full recording" (fun () ->
          ignore (check_exact "rules" (simplify rules_src)));
      case "suite tables equal a full recording, shared rows physically" (fun () ->
          let shared =
            List.fold_left
              (fun n name ->
                n
                + check_exact name
                    (Simple_ir.Simplify.of_file (Test_benchmarks.bench_path name)))
              0
              (Test_benchmarks.all_names @ [ "livc" ])
          in
          Alcotest.(check bool) "some statements share" true (shared > 0));
      case "corpus shapes: tables equal a full recording, shared rows physically" (fun () ->
          List.iter
            (fun (name, knobs) ->
              let p = Simple_ir.Simplify.of_string ~file:name (Gen.program knobs) in
              Alcotest.(check bool) (name ^ ": some statements share") true
                (check_exact name p > 0))
            Test_incremental.shapes);
    ] )
