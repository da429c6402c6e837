(* Spans recorded by the benchmark around its calls into the engine, and a
   wrapper for the [Storage.Io.t] record the engine is opened with.

   Tracing is per domain: [in_txn] switches it on for the current domain
   while one transaction runs, so untraced transactions on the same or
   another domain pay nothing but a flag test. Spans stay in per-domain
   buffers until [spans] collects them at the end of the run. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a top-level span. *)
  txn : int;  (** Shared by the spans of one transaction. *)
  start : float;
  stop : float;
  bytes : int;  (** Payload size, for storage calls. *)
}

type local = {
  mutable active : bool;
  mutable txn : int;
  mutable stack : int list;
  mutable done_ : span list;
}

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let l = { active = false; txn = 0; stack = []; done_ = [] } in
      Mutex.protect registry_lock (fun () -> registry := l :: !registry);
      l)

let next_id = Atomic.make 1

let record l ~name ~id ~parent ~start ~stop ~bytes =
  l.done_ <- { id; name; parent; txn = l.txn; start; stop; bytes } :: l.done_

let with_span ?(bytes = 0) name f =
  let l = Domain.DLS.get key in
  if not l.active then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match l.stack with p :: _ -> p | [] -> 0 in
    l.stack <- id :: l.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        l.stack <- List.tl l.stack;
        record l ~name ~id ~parent ~start ~stop ~bytes)
      f
  end

(* A zero-length span: a protocol point announced through [Io.note]. *)
let mark name =
  let l = Domain.DLS.get key in
  if l.active then begin
    let t = now () in
    let parent = match l.stack with p :: _ -> p | [] -> 0 in
    record l ~name ~id:(Atomic.fetch_and_add next_id 1) ~parent ~start:t
      ~stop:t ~bytes:0
  end

let in_txn ~txn f =
  let l = Domain.DLS.get key in
  l.active <- true;
  l.txn <- txn;
  Fun.protect ~finally:(fun () -> l.active <- false) f

let spans () =
  Mutex.protect registry_lock (fun () ->
      List.concat_map (fun l -> l.done_) !registry)

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter (fun l -> l.done_ <- []) !registry)

(* ---------------------------- storage ----------------------------- *)

(* Calls and bytes through the mutating fields, counted on every run (the
   untraced run needs them for write amplification), and bytes read. *)
type counts = {
  append_calls : int Atomic.t;
  append_bytes : int Atomic.t;
  write_calls : int Atomic.t;
  write_bytes : int Atomic.t;
  rename_calls : int Atomic.t;
  fsync_dir_calls : int Atomic.t;
  read_bytes : int Atomic.t;
}

let counts =
  {
    append_calls = Atomic.make 0;
    append_bytes = Atomic.make 0;
    write_calls = Atomic.make 0;
    write_bytes = Atomic.make 0;
    rename_calls = Atomic.make 0;
    fsync_dir_calls = Atomic.make 0;
    read_bytes = Atomic.make 0;
  }

type snapshot = (string * int) list

let snapshot () : snapshot =
  let c = counts in
  List.map
    (fun (n, a) -> (n, Atomic.get a))
    [
      ("append_calls", c.append_calls);
      ("append_bytes", c.append_bytes);
      ("write_calls", c.write_calls);
      ("write_bytes", c.write_bytes);
      ("rename_calls", c.rename_calls);
      ("fsync_dir_calls", c.fsync_dir_calls);
      ("read_bytes", c.read_bytes);
    ]

(* [diff later earlier] per counter. *)
let diff (b : snapshot) (a : snapshot) : snapshot =
  List.map (fun (n, v) -> (n, v - List.assoc n a)) b

let get (s : snapshot) n = List.assoc n s

let wrap (base : Storage.Io.t) : Storage.Io.t =
  let bump calls bytes n =
    Atomic.incr calls;
    Atomic.fetch_and_add bytes n |> ignore
  in
  {
    base with
    read_file =
      (fun p ->
        let s = with_span "storage.read" (fun () -> base.read_file p) in
        Atomic.fetch_and_add counts.read_bytes (String.length s) |> ignore;
        s);
    write_file =
      (fun p d ->
        bump counts.write_calls counts.write_bytes (String.length d);
        with_span ~bytes:(String.length d) "storage.write" (fun () ->
            base.write_file p d));
    append_file =
      (fun p d ->
        bump counts.append_calls counts.append_bytes (String.length d);
        with_span ~bytes:(String.length d) "storage.append" (fun () ->
            base.append_file p d));
    rename =
      (fun a b ->
        Atomic.incr counts.rename_calls;
        with_span "storage.rename" (fun () -> base.rename a b));
    remove = (fun p -> with_span "storage.remove" (fun () -> base.remove p));
    mkdir = (fun p -> with_span "storage.mkdir" (fun () -> base.mkdir p));
    fsync_dir =
      (fun p ->
        Atomic.incr counts.fsync_dir_calls;
        with_span "storage.fsync_dir" (fun () -> base.fsync_dir p));
    note =
      (fun n ->
        mark ("note:" ^ n);
        base.note n);
  }
