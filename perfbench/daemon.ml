(** The [ptan serve] daemon as a child process, and the closed-loop
    client that drives it over Unix-socket connections. *)

type t = {
  pid : int;
  err : Unix.file_descr;  (** read end of the daemon's stderr *)
  socket : string;
}

let read_line_from fd ~deadline =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Measure.now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
  in
  go ()

(** Start [ptan serve] in demand mode on [files] and return once it
    prints its ready line. The socket path is relative: the caller runs
    in the work directory, which keeps it short. *)
let start ~ptan ~jobs ~socket files =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv =
    Array.of_list
      ([ ptan; "serve"; "--demand"; "--no-cache"; "-j"; string_of_int jobs; "--socket"; socket ]
      @ files)
  in
  let pid = Unix.create_process ptan argv null null w in
  Unix.close w;
  Unix.close null;
  let d = { pid; err = r; socket } in
  let deadline = Measure.now () +. 60. in
  let rec wait () =
    match read_line_from r ~deadline with
    | Some l when String.starts_with ~prefix:"serve: ready" l -> d
    | Some _ -> wait ()
    | None -> failwith "ptan serve did not become ready"
  in
  wait ()

(** One client connection with its own receive buffer. *)
type conn = { fd : Unix.file_descr; rbuf : Buffer.t }

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { fd; rbuf = Buffer.create 256 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 500

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let chunk = Bytes.create 65536

(** A complete reply line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.rbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.rbuf;
      Buffer.add_string c.rbuf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "ptan serve closed the connection"
  | n -> Buffer.add_subbytes c.rbuf chunk 0 n

let rec recv c =
  match take_line c with
  | Some l -> l
  | None ->
      fill c;
      recv c

let request c line =
  send c line;
  recv c

(** Closed loop: each connection carries [window] clients, each of
    which sends its next request only after its reply (replies come in
    request order per connection). Returns, per request in [reqs]
    order, the reply and its round-trip seconds. *)
let closed_loop ?(window = 1) conns (reqs : string array) =
  let n = Array.length reqs in
  let replies = Array.make n ("", 0.) in
  let next = ref 0 in
  let inflight = Hashtbl.create 4 in
  let refill c =
    let q = Hashtbl.find inflight c.fd |> snd in
    while Queue.length q < window && !next < n do
      let i = !next in
      incr next;
      Queue.push (i, Measure.now ()) q;
      send c reqs.(i)
    done
  in
  List.iter
    (fun c ->
      Hashtbl.replace inflight c.fd (c, Queue.create ());
      refill c)
    conns;
  let busy () = Hashtbl.fold (fun fd (_, q) acc -> if Queue.is_empty q then acc else fd :: acc) inflight [] in
  let rec loop () =
    match busy () with
    | [] -> ()
    | fds ->
        let ready, _, _ = Unix.select fds [] [] (-1.) in
        List.iter
          (fun fd ->
            let c, q = Hashtbl.find inflight fd in
            fill c;
            let rec drain () =
              match take_line c with
              | None -> ()
              | Some reply ->
                  let i, t0 = Queue.pop q in
                  replies.(i) <- (reply, Measure.now () -. t0);
                  drain ()
            in
            drain ();
            refill c)
          ready;
        loop ()
  in
  loop ();
  replies

(** Stop the daemon: [quit] over a fresh connection, then SIGTERM if it
    lingers; always reaped. *)
let stop d =
  (try
     let c = connect d in
     ignore (request c "quit");
     Unix.close c.fd
   with _ -> ());
  let deadline = Measure.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  Unix.close d.err
