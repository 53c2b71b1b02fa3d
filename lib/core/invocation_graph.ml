(** Invocation graphs (paper §4, Figure 2).

    Each node represents one invocation context: a path of procedure
    calls from [main]. Non-recursive call structure yields a tree built
    by depth-first traversal; recursion is approximated by matched pairs
    of a {e recursive} node (where the fixed point is computed) and an
    {e approximate} leaf (where the stored approximation is reused),
    linked by a back-edge ([partner]).

    Call sites through function pointers contribute no children at build
    time; the analysis extends the graph on the fly (§5, Figure 5) via
    {!add_indirect_child}.

    Each node memoizes the IN/OUT points-to pair of its invocation
    (Figure 4) and the map information relating callee symbolic names to
    caller locations (§4.1), for use by later interprocedural analyses. *)

module Ir = Simple_ir.Ir

type kind =
  | Ordinary
  | Recursive
  | Approximate

(** Map information deposited by the points-to analysis: each symbolic
    name (or global, identically mapped) with the caller locations it
    represents in this context. *)
type map_info = (Loc.t * Loc.t list) list

type node = {
  id : int;
  func : string;
  parent : node option;
  mutable kind : kind;
  mutable partner : node option;  (** approximate -> its recursive ancestor *)
  mutable children : (int * node) list;
      (** (call statement id, child); indirect sites may map one id to
          several children. In reverse discovery order. *)
  mutable stored_input : Pts.state;
  mutable stored_output : Pts.state;
  mutable pending : Pts.t list;
  mutable in_flight : bool;
  mutable map_info : map_info;
}

type t = { root : node }

(* Node ids are assigned from a domain-local counter, reset by {!build}:
   an analysis runs wholly on one domain, so ids depend only on the
   program under analysis — never on what other domains (or earlier
   analyses on this one) did. *)
let node_counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* Live node count of the analysis running on this domain, including
   children grown at indirect sites since {!build} — what {!Guard}'s
   [max-locs] ceiling bounds while the graph is still growing. *)
let node_count () = !(Domain.DLS.get node_counter)

let fresh_node ~func ~parent ~kind =
  let node_counter = Domain.DLS.get node_counter in
  incr node_counter;
  {
    id = !node_counter;
    func;
    parent;
    kind;
    partner = None;
    children = [];
    stored_input = Pts.bot;
    stored_output = Pts.bot;
    pending = [];
    in_flight = false;
    map_info = [];
  }

(** Nearest ancestor (or the node itself) whose function is [fname]. *)
let rec ancestor_with node fname =
  if String.equal node.func fname then Some node
  else match node.parent with None -> None | Some p -> ancestor_with p fname

let children_at node stmt_id =
  List.filter_map (fun (id, c) -> if id = stmt_id then Some c else None) node.children

let child_at_for node stmt_id fname =
  List.find_map
    (fun (id, c) -> if id = stmt_id && String.equal c.func fname then Some c else None)
    node.children

(** Direct call sites (stmt id, callee) appearing in a function body, in
    textual order. *)
let direct_call_sites (fn : Ir.func) : (int * string) list =
  List.rev
    (Ir.fold_func
       (fun acc s ->
         match s.Ir.s_desc with
         | Ir.Scall (_, Ir.Cdirect f, _) -> (s.Ir.s_id, f) :: acc
         | _ -> acc)
       [] fn)

(** Create the subtree for an invocation of [fname] as a child context of
    [parent] (or a root when [parent] is [None]): DFS over direct call
    sites, terminating each branch whose callee already appears on the
    ancestor chain with an approximate node paired to that ancestor. *)
let rec grow ?(within = fun _ -> true) (tenv : Tenv.t) ~(parent : node option)
    (fname : string) : node =
  let node = fresh_node ~func:fname ~parent ~kind:Ordinary in
  (match Tenv.find_func tenv fname with
  | None -> ()
  | Some fn ->
      List.iter
        (fun (sid, callee) ->
          if Tenv.is_defined_func tenv callee && within callee then begin
            let child = grow_child ~within tenv node callee in
            node.children <- (sid, child) :: node.children
          end)
        (direct_call_sites fn));
  node

and grow_child ?within tenv node callee =
  match ancestor_with node callee with
  | Some anc ->
      anc.kind <- Recursive;
      let child = fresh_node ~func:callee ~parent:(Some node) ~kind:Approximate in
      child.partner <- Some anc;
      child
  | None -> grow ?within tenv ~parent:(Some node) callee

(** Extend the graph at an indirect call site (Figure 5's
    updateInvocGraph): returns the (possibly pre-existing) child for
    target [fname] at statement [stmt_id] of [node]. *)
let add_indirect_child tenv node stmt_id fname : node =
  match child_at_for node stmt_id fname with
  | Some c -> c
  | None ->
      let child = grow_child tenv node fname in
      node.children <- (stmt_id, child) :: node.children;
      child

let build ?within (tenv : Tenv.t) ~(entry : string) : t =
  let node_counter = Domain.DLS.get node_counter in
  node_counter := 0;
  let root = grow ?within tenv ~parent:None entry in
  { root }

(* ------------------------------------------------------------------ *)
(* Queries and statistics                                             *)
(* ------------------------------------------------------------------ *)

let fold f acc (g : t) =
  let rec go acc n = List.fold_left (fun acc (_, c) -> go acc c) (f acc n) n.children in
  go acc g.root

let n_nodes g = fold (fun n _ -> n + 1) 0 g

let n_recursive g = fold (fun n x -> if x.kind = Recursive then n + 1 else n) 0 g

let n_approximate g = fold (fun n x -> if x.kind = Approximate then n + 1 else n) 0 g

(** Functions that appear in the graph (i.e. are actually invoked). *)
let called_funcs g =
  fold
    (fun acc n -> if List.mem n.func acc then acc else n.func :: acc)
    [] g

let kind_letter = function Ordinary -> "" | Recursive -> "-R" | Approximate -> "-A"

let rec pp_node ~indent ppf n =
  Fmt.pf ppf "%s%s%s  (#%d)@." (String.make indent ' ') n.func (kind_letter n.kind) n.id;
  List.iter (fun (_, c) -> pp_node ~indent:(indent + 2) ppf c) (List.rev n.children)

let pp ppf g = pp_node ~indent:0 ppf g.root
