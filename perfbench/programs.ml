(** Workload inputs: the generated programs, the seeded transformations
    applied to them (function order, edits, queries), and the
    comparisons the correctness checks are made of. *)

module Ir = Simple_ir.Ir
module Analysis = Pointsto.Analysis
module Pts = Pointsto.Pts
module Loc = Pointsto.Loc
module Stats = Pointsto.Stats
module Ig = Pointsto.Invocation_graph

(** The corpus shapes, at a given size (docs/CORPUS.md). The generator
    seed is the shape's own: the run seed never reaches [Gen.program],
    because analysis cost varies several-fold between generator seeds
    of one shape and size, which would swamp every cross-seed spread. *)
let web size = { Gen.default with Gen.seed = 11; size; depth = 4; fnptr_density = 30 }

let deep size =
  { Gen.default with Gen.seed = 23; size; depth = 7; fnptr_density = 0; structs = 50 }

let knot size =
  { Gen.default with Gen.seed = 37; size; depth = 4; fnptr_density = 15; recursion = 30 }

let gen (k : Gen.knobs) = fst (Measure.time "gen" (fun () -> Gen.program k))

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Seeded transformations of the text                                 *)
(* ------------------------------------------------------------------ *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** A top-level definition starts on an unindented line ending in [{]
    (struct declarations aside) and ends at the next line ["}"]. *)
let is_def_start l =
  String.length l > 0
  && l.[0] <> ' '
  && l.[String.length l - 1] = '{'
  && not (String.starts_with ~prefix:"struct" l)

(** The text cut into the prelude (everything before the first
    definition) and the definitions, each with the lines that follow it
    up to the next one. *)
let split_defs text =
  let rec go prelude defs cur = function
    | [] ->
        let defs = match cur with [] -> defs | c -> List.rev c :: defs in
        (List.rev prelude, List.rev_map (String.concat "\n") defs)
    | l :: rest when is_def_start l ->
        let defs = match cur with [] -> defs | c -> List.rev c :: defs in
        go prelude defs [ l ] rest
    | l :: rest -> (
        match (cur, defs) with
        | [], [] -> go (l :: prelude) defs cur rest
        | _ -> go prelude defs (l :: cur) rest)
  in
  go [] [] [] (String.split_on_char '\n' text)

(** The same program with its function definitions in a seeded order.
    Every prototype precedes the definitions, so the order is free; the
    analysis result is the same up to statement numbering. *)
let permute_defs rng text =
  let prelude, defs = split_defs text in
  String.concat "\n" (prelude @ shuffle rng defs)

(** Names of the generated non-main functions defined in [text]. *)
let defined_funcs text =
  List.filter_map
    (fun l ->
      if is_def_start l && String.starts_with ~prefix:"int f" l then
        Scanf.sscanf_opt l "int %[a-z0-9_](" Fun.id
      else None)
    (String.split_on_char '\n' text)

type edit_kind = Comment | Neutral | Changing

let edit_kind_name = function
  | Comment -> "comment"
  | Neutral -> "neutral"
  | Changing -> "changing"

(** One line inserted before [fn]'s final [return r;]: a comment (the
    rekey path), a statement no pointer sees, or a new address
    assignment to the local pointer [lp]. *)
let apply_edit text ~fn ~kind ~k =
  let line =
    match kind with
    | Comment -> Printf.sprintf "    /* edit %d */" k
    | Neutral -> "    lv = n + 0;"
    | Changing -> Printf.sprintf "    lp = &gv%d;" (k mod 3)
  in
  let header = Printf.sprintf "int %s(int n, int *p) {" fn in
  let rec go inside = function
    | [] -> invalid_arg ("apply_edit: no body for " ^ fn)
    | l :: rest when inside && String.equal l "    return r;" -> line :: l :: rest
    | l :: rest -> l :: go (inside || String.equal l header) rest
  in
  String.concat "\n" (go false (String.split_on_char '\n' text))

(** [n] edit kinds (a multiple of three), equal thirds of each, in a
    seeded order. *)
let edit_kinds rng n =
  shuffle rng (List.concat (List.init (n / 3) (fun _ -> [ Comment; Neutral; Changing ])))

(** Every kind of edit on every other generated function of [text] (by
    name), in a seeded order. The set of edits is fixed: an edit's cost
    depends on its kind and on the edited function's cone of callers,
    and when the seed chose functions or kinds the median edit moved by
    2.5x. *)
let edit_plan rng text =
  List.sort String.compare (defined_funcs text)
  |> List.filteri (fun i _ -> i mod 2 = 0)
  |> List.concat_map (fun f -> List.map (fun kind -> (f, kind)) [ Comment; Neutral; Changing ])
  |> shuffle rng

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let is_ptr = function Cfront.Ctype.Ptr _ -> true | _ -> false

(** One query per non-main function of [prog], in a seeded order, with
    the flavour rotating through pts, alias and calls. Statements and variables are seeded picks among the valid ones
    (globals for a function without pointers); a function without a
    call site asks a pts query instead of calls. *)
let queries rng (prog : Ir.program) =
  let funcs = List.filter (fun f -> not (String.equal f.Ir.fn_name "main")) prog.Ir.funcs in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let global_ptrs = List.filter_map (fun (v, ty) -> if is_ptr ty then Some v else None) prog.Ir.globals in
  let ask flavour (fn : Ir.func) =
    let stmts = Ir.fold_func (fun acc s -> s :: acc) [] fn |> List.rev in
    let calls =
      List.filter (fun s -> match s.Ir.s_desc with Ir.Scall _ -> true | _ -> false) stmts
    in
    let ptrs =
      match
        List.filter_map
          (fun (v, ty) -> if is_ptr ty then Some v else None)
          (fn.Ir.fn_params @ fn.Ir.fn_locals)
      with
      | [] -> global_ptrs
      | ptrs -> ptrs
    in
    let s = pick stmts in
    match (flavour, calls, ptrs) with
    | 2, (_ :: _ as calls), _ -> Printf.sprintf "calls s%d" (pick calls).Ir.s_id
    | 1, _, (_ :: _ :: _ as ptrs) ->
        Printf.sprintf "alias %s s%d %s %s" fn.Ir.fn_name s.Ir.s_id (pick ptrs) (pick ptrs)
    | _, _, (_ :: _ as ptrs) -> Printf.sprintf "pts %s s%d %s" fn.Ir.fn_name s.Ir.s_id (pick ptrs)
    | _, c :: _, [] -> Printf.sprintf "calls s%d" c.Ir.s_id
    | _, [], [] -> invalid_arg ("queries: nothing to ask in " ^ fn.Ir.fn_name)
  in
  List.mapi (fun i fn -> ask (i mod 3) fn) (shuffle rng funcs)

(* ------------------------------------------------------------------ *)
(* Result comparisons                                                 *)
(* ------------------------------------------------------------------ *)

(** IG node count by the {!Ig.n_nodes} fold — never the [graph.n_nodes]
    field, which misses the children indirect calls add. *)
let ig_nodes (r : Analysis.result) = Ig.n_nodes r.Analysis.graph

let show_set s =
  Pts.to_list s
  |> List.map (fun (a, b, c) -> Fmt.str "%a>%a/%s" Loc.pp a Loc.pp b (Pts.cert_to_string c))
  |> List.sort String.compare |> String.concat ","

(** Digest of a result that does not depend on statement numbering:
    every statement's points-to set keyed by (function, position in
    the function), the entry output, and the invocation-graph counts.
    Equal for any order of the function definitions. *)
let digest (r : Analysis.result) =
  let b = Buffer.create (1 lsl 16) in
  List.sort (fun a b -> String.compare a.Ir.fn_name b.Ir.fn_name) r.Analysis.prog.Ir.funcs
  |> List.iter (fun fn ->
         ignore
           (Ir.fold_func
              (fun i s ->
                Printf.bprintf b "%s#%d:%s\n" fn.Ir.fn_name i
                  (show_set (Analysis.pts_at r s.Ir.s_id));
                i + 1)
              0 fn));
  (match r.Analysis.entry_output with
  | Some o -> Printf.bprintf b "entry:%s\n" (show_set o)
  | None -> ());
  let ig = Stats.ig_stats r in
  Printf.bprintf b "ig %d %d %d %d %d" (ig_nodes r) ig.Stats.call_sites ig.Stats.n_funcs
    ig.Stats.n_recursive ig.Stats.n_approximate;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** Degraded-run soundness modulo the §4.1 symbolic names — the corpus
    superset comparison (docs/CORPUS.md): every precise pair with
    concrete endpoints is in the degraded run, verbatim or absorbed by
    a degraded pair of the same statement and source whose target is
    symbolic. *)
let superset ~(full : Analysis.result) ~(degraded : Analysis.result) =
  let deg = Hashtbl.create 4096 and deg_sym = Hashtbl.create 1024 in
  let add_deg sid s =
    Pts.iter
      (fun src dst _ ->
        Hashtbl.replace deg (sid, Loc.id src, Loc.id dst) ();
        if Loc.sym_depth dst > 0 then Hashtbl.replace deg_sym (sid, Loc.id src) ())
      s
  in
  Hashtbl.iter add_deg degraded.Analysis.stmt_pts;
  Option.iter (add_deg (-1)) degraded.Analysis.entry_output;
  let ok = ref true in
  let check sid s =
    Pts.iter
      (fun src dst _ ->
        if
          Loc.sym_depth src = 0
          && Loc.sym_depth dst = 0
          && (not (Hashtbl.mem deg (sid, Loc.id src, Loc.id dst)))
          && not (Hashtbl.mem deg_sym (sid, Loc.id src))
        then ok := false)
      s
  in
  Hashtbl.iter check full.Analysis.stmt_pts;
  Option.iter (check (-1)) full.Analysis.entry_output;
  !ok

(** The IG count check of the self-test: the fold agrees with
    {!Stats.ig_stats}. *)
let ig_agrees r = ig_nodes r = (Stats.ig_stats r).Stats.ig_nodes
