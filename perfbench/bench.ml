(* The session-path benchmark. One run sets up one workload (see Inputs),
   drives its statement streams through the public session API, checks the
   answers and the reopened state against a reference, and prints its
   metrics; the last line of stdout is one JSON object.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics. --trace 1 runs the same loop
   with alternate chunks of transactions traced (spans around the calls
   into each module, plus the wrapped Storage.Io.t) and reports the
   per-layer metrics; the untraced half gives the tracing overhead. See
   README.md. *)

open Nullrel
open Inputs

let now = Tracer.now

(* ------------------------------ helpers ------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest rank, on a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile (sorted (Array.of_list xs)) 50.

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* The copy is made durable, as the directory a shutdown leaves is, so a
   reopen of it does not pay for flushing the copy. *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc;
      fsync_path (Filename.concat dst f))
    (Sys.readdir src);
  fsync_path dst

let t_begin = now ()
let phase name = Printf.eprintf "bench: %-10s done at %7.2f s\n%!" name (now () -. t_begin)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

(* ------------------------------ set-up ------------------------------- *)

(* Set-up and reopen are repeated and reported as medians: at least
   [least] times and until 2 s were spent, at most [most] times. A reopen
   of a small directory is a few fsyncs, whose latency on a shared disk
   ranges over 10x from one call to the next, so reopens may take
   hundreds of samples. *)
let reps_left ~least ~most k samples =
  k < least || (k < most && List.fold_left ( +. ) 0. samples < 2.)

let io = Tracer.wrap (Storage.Io.retrying Storage.Io.real)

(* Everything the program does before the timed loop, from the generated
   rows to an open engine: relation loading (which minimizes), constraint
   and index DDL, the initial checkpoint, and the engine's recovery
   open. *)
let build (w : Inputs.t) ~dir =
  let cat =
    List.fold_left
      (fun cat (schema, rows) -> Storage.Catalog.add cat schema (Xrel.of_list rows))
      Storage.Catalog.empty w.relations
  in
  let cat = List.fold_left (fun cat d -> (Dml.exec_string cat d).Dml.catalog) cat w.ddl in
  let cat =
    List.fold_left
      (fun cat (rel, a) ->
        Storage.Catalog.create_index cat rel ~kind:"hash" (Attr.set_of_list [ a ]))
      cat w.indexes
  in
  Storage.Persist.save ~io ~dir cat;
  let eng, _ = Session.open_engine ~io ~dir () in
  (cat, eng)

let checked st = match st.expect with Unchecked -> false | Lower _ | Bands _ -> true

(* The reference answers of a read-only workload, computed with the
   calculus evaluator before anything is timed. *)
let expect_answers (w : Inputs.t) cat =
  let db = Storage.Catalog.to_db cat in
  let c = w.client in
  Array.iter
    (fun (t : txn) ->
      Array.iter
        (fun st ->
          if st.kind = Retrieve && not (checked st) then
            match Quel.Parser.parse_statement st.text with
            | Quel.Ast.Retrieve q -> (
                match c.semantics.(t.sess) with
                | Semantics.Ni_lower -> st.expect <- Lower (Quel.Eval.run db q).rel
                | d ->
                    st.expect <-
                      Bands
                        (Quel.Eval.query
                           (Quel.Eval.ctx ~semantics:(Semantics.of_dialect d) ())
                           db q))
            | _ -> ())
        t.stmts)
    c.stream

let read_only (w : Inputs.t) =
  Array.for_all (fun t -> Array.for_all (fun st -> st.kind = Retrieve) t.stmts) w.client.stream

(* ------------------------------ reopen ------------------------------- *)

(* One timed [Session.open_engine] on a fresh copy of [pristine]. *)
let reopen_copy ~pristine ~rdir ~wrap =
  rm_rf rdir;
  copy_dir pristine rdir;
  Gc.compact ();
  let t0 = now () in
  let e, report = wrap (fun () -> Session.open_engine ~io ~dir:rdir ()) in
  (now () -. t0, e, report)

(* [bench.exe --workload W --reopen DIR]: the timed reopens, printed one
   per line. They run in a fresh process, as after a restart, so the
   bench's own heap (inputs, samples, the set-up catalog) does not slow
   the collector during recovery. *)
let reopen_main pristine =
  let rdir = pristine ^ "-reopen" in
  let rec go times =
    if reps_left ~least:5 ~most:301 (List.length times) times then begin
      let t, e, _ = reopen_copy ~pristine ~rdir ~wrap:(fun f -> f ()) in
      Session.shutdown e;
      go (t :: times)
    end
    else List.rev times
  in
  let times = go [] in
  rm_rf rdir;
  List.iter (Printf.printf "%.9f\n") times

(* [bench.exe --workload W --seed N --setup DIR]: the timed set-ups, in
   DIR, printed one per line. They run in their own process, so the
   set-ups repeated for the median leave nothing in the run's heap. *)
let setup_main w dir =
  let rec go times =
    if reps_left ~least:3 ~most:41 (List.length times) times then begin
      rm_rf dir;
      Gc.compact ();
      let t0 = now () in
      let _, eng = build w ~dir in
      let t = now () -. t0 in
      Session.shutdown eng;
      go (t :: times)
    end
    else List.rev times
  in
  let times = go [] in
  rm_rf dir;
  List.iter (Printf.printf "%.9f\n") times

(* Runs [bench.exe ARGS] and reads the times it prints, one per line. *)
let times_in_child args ~out =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "the child process %s failed" (String.concat " " args));
  let ic = open_in out in
  let rec lines acc =
    match input_line ic with
    | l -> lines (float_of_string l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let times = lines [] in
  close_in ic;
  times

(* ------------------------------ the loop ----------------------------- *)

let kind_index = function
  | Retrieve -> 0
  | Append -> 1
  | Delete -> 2
  | Replace -> 3
  | Cascade -> 4

(* What the client saw. Latencies come from untraced transactions only. *)
type acc = {
  txn_lat : Fbuf.t;
  txn_stmts : Fbuf.t;  (** Statements completed, per untraced txn. *)
  txn_done : Fbuf.t;  (** 1 when the txn completed, else 0. *)
  txn_busy : Fbuf.t;  (** Its time, whether it completed or not. *)
  stmt_lat : Fbuf.t array;  (** By [kind_index]. *)
  commit_lat : Fbuf.t;
  mutable stmts : int;
  mutable txns : int;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable acked : (int * int * string) list;  (** LSN, sequence, statement. *)
  mutable acked_bytes : int;
  (* Trace A/B: statements and busy time of untraced vs traced txns. *)
  mutable plain_stmts : int;
  mutable plain_s : float;
  mutable plain_words : float;
  mutable traced_stmts : int;
  mutable traced_s : float;
  (* Layer counts, from traced transactions. *)
  mutable appends : int;
  mutable noinfo : int;
  mutable evicted : int;
  mutable writes : int;
  mutable cascades : int;
  mutable delta_tuples : int;
  mutable examined : float;
  mutable result_rows : float;
  mutable eval_s : float;
  mutable plan_compile_s : float;
  mutable plan_run_s : float;
}

let new_acc () =
  {
    txn_lat = Fbuf.create ();
    txn_stmts = Fbuf.create ();
    txn_done = Fbuf.create ();
    txn_busy = Fbuf.create ();
    stmt_lat = Array.init 5 (fun _ -> Fbuf.create ());
    commit_lat = Fbuf.create ();
    stmts = 0;
    txns = 0;
    attempted = 0;
    failed = 0;
    mismatches = 0;
    acked = [];
    acked_bytes = 0;
    plain_stmts = 0;
    plain_s = 0.;
    plain_words = 0.;
    traced_stmts = 0;
    traced_s = 0.;
    appends = 0;
    noinfo = 0;
    evicted = 0;
    writes = 0;
    cascades = 0;
    delta_tuples = 0;
    examined = 0.;
    result_rows = 0.;
    eval_s = 0.;
    plan_compile_s = 0.;
    plan_run_s = 0.;
  }

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let answer_ok st (out : Dml.outcome) =
  match (st.expect, out.Dml.result, out.Dml.bands) with
  | Unchecked, _, _ -> true
  | Lower x, Some r, _ -> Xrel.equal x r.Quel.Eval.rel
  | Bands b, _, Some b' ->
      Relation.equal b.Quel.Eval.sure b'.Quel.Eval.sure
      && Option.equal Relation.equal b.Quel.Eval.maybe b'.Quel.Eval.maybe
  | _ -> false

let cardinal cat rel =
  match Storage.Catalog.find cat rel with
  | Some (_, x) -> Xrel.cardinal x
  | None -> 0

(* The planner as a shadow of a traced retrieve: compile and run the same
   query on the same snapshot, outside the statement's span. *)
let plan_shadow acc cat q (out : Dml.outcome) =
  let db = Storage.Catalog.to_db cat in
  let stats =
    {
      Plan.Cost.rowcount =
        (fun n -> Option.map (fun (_, x) -> Xrel.cardinal x) (Storage.Catalog.find cat n));
      table = Storage.Catalog.stats cat;
      equipped = Storage.Catalog.has_equi cat;
    }
  in
  let schemas n = Option.map (fun (s, _) -> Schema.attrs s) (Storage.Catalog.find cat n) in
  let t0 = now () in
  ignore (Tracer.with_span "plan.compile" (fun () -> Plan.Compile.query ~schemas q));
  let t1 = now () in
  let r =
    Tracer.with_span "plan.run" (fun () ->
        Plan.Compile.run ~stats
          ~index_probe:
            (Plan.Compile.index_probe_of ~stats ~probe_for:(Storage.Catalog.equi_probe cat))
          db q)
  in
  let t2 = now () in
  acc.plan_compile_s <- acc.plan_compile_s +. (t1 -. t0);
  acc.plan_run_s <- acc.plan_run_s +. (t2 -. t1);
  (match out.Dml.result with
  | Some r' when Xrel.equal r.Quel.Eval.rel r'.Quel.Eval.rel -> ()
  | _ -> acc.mismatches <- acc.mismatches + 1);
  t2 -. t0

(* One statement inside a traced transaction, with the layer counts taken
   around it. Returns the time spent outside the statement on counting and
   shadowing, which the A/B overhead comparison leaves out. *)
let exec_traced acc sess st =
  let ast, out =
    Tracer.with_span "stmt" (fun () ->
        let ast =
          Tracer.with_span "quel.parse" (fun () -> Quel.Parser.parse_statement st.text)
        in
        let span = "dml." ^ kind_name (if st.kind = Cascade then Delete else st.kind) in
        let t0 = now () in
        let out = Tracer.with_span span (fun () -> Session.exec sess ast) in
        if st.kind = Retrieve then acc.eval_s <- acc.eval_s +. (now () -. t0);
        (ast, out))
  in
  let extra = ref 0. in
  (match ast with
  | Quel.Ast.Retrieve q ->
      let cat = (Session.snapshot sess).catalog in
      acc.examined <-
        acc.examined
        +. List.fold_left (fun p (_, r) -> p *. float_of_int (cardinal cat r)) 1. q.ranges;
      acc.result_rows <-
        acc.result_rows
        +.
        (match (out.Dml.result, out.Dml.bands) with
        | _, Some b ->
            float_of_int
              (Relation.cardinal b.Quel.Eval.sure
              + Option.fold ~none:0 ~some:Relation.cardinal b.Quel.Eval.maybe)
        | Some r, None -> float_of_int (Xrel.cardinal r.Quel.Eval.rel)
        | None, None -> 0.);
      if (Session.semantics sess).Semantics.dialect = Semantics.Ni_lower then
        extra := plan_shadow acc cat q out
  | _ -> ());
  (ast, out, !extra)

(* The per-write layer counts: information added, rows evicted, cascades. *)
let count_write acc ~before ~after (st : stmt) (out : Dml.outcome) =
  acc.writes <- acc.writes + 1;
  if List.length out.Dml.touched > 1 then acc.cascades <- acc.cascades + 1;
  List.iter
    (fun (d : Constr.delta) ->
      acc.delta_tuples <-
        acc.delta_tuples + Tuple.Set.cardinal d.d_added + Tuple.Set.cardinal d.d_removed)
    out.Dml.deltas;
  if st.kind = Append then begin
    acc.appends <- acc.appends + 1;
    if List.is_empty out.Dml.deltas then acc.noinfo <- acc.noinfo + 1
    else acc.evicted <- acc.evicted + max 0 (before + 1 - after)
  end

let write_target = function
  | Quel.Ast.Append { rel; _ } | Delete { rel; _ } | Replace { rel; _ } -> Some rel
  | _ -> None

exception Txn_failed

(* A transaction whose statements have run and whose commit has not. *)
type pending = {
  p_txn : txn;
  p_id : int;
  p_traced : bool;
  p_sess : Session.t;
  p_ok : bool;  (** No statement failed. *)
  p_stmts : int;  (** Statements completed. *)
  p_writes : string list;  (** Its update statements, in order. *)
  p_busy : float;  (** Time in its own calls, less counting and shadowing. *)
  p_words : float;  (** Words allocated in its own calls, untraced only. *)
}

let traced_if traced ~txn_id f = if traced then Tracer.in_txn ~txn:txn_id f else f ()

(* The statements of [t]. Its commit is [finish_txn]'s, so that a client
   can run another session's statements in between. *)
let begin_txn ~acc ~sessions ~traced ~txn_id (t : txn) =
  let sess = sessions.(t.sess) in
  let t_start = now () in
  let w0 = if traced then 0. else alloc_words () in
  let outside = ref 0. in
  let done_ = ref 0 in
  let writes = ref [] in
  let body () =
    Array.iter
      (fun st ->
        acc.attempted <- acc.attempted + 1;
        let s0 = now () in
        match
          if traced then begin
            let cat_before = (Session.snapshot sess).catalog in
            let ast, out, extra = exec_traced acc sess st in
            let c0 = now () in
            (match write_target ast with
            | Some rel ->
                count_write acc ~before:(cardinal cat_before rel)
                  ~after:(cardinal (Session.snapshot sess).catalog rel)
                  st out
            | None -> ());
            outside := !outside +. extra +. (now () -. c0);
            out
          end
          else Session.exec_string sess st.text
        with
        | out ->
            let s1 = now () in
            if not traced then Fbuf.push acc.stmt_lat.(kind_index st.kind) (s1 -. s0);
            acc.stmts <- acc.stmts + 1;
            incr done_;
            if st.kind <> Retrieve then writes := st.text :: !writes;
            if checked st then begin
              if not (answer_ok st out) then acc.mismatches <- acc.mismatches + 1;
              outside := !outside +. (now () -. s1)
            end
        | exception e ->
            prerr_endline ("bench: statement failed: " ^ Printexc.to_string e ^ ": " ^ st.text);
            acc.failed <- acc.failed + 1;
            Session.rollback sess;
            raise Txn_failed)
      t.stmts
  in
  let ok =
    match traced_if traced ~txn_id body with () -> true | exception Txn_failed -> false
  in
  {
    p_txn = t;
    p_id = txn_id;
    p_traced = traced;
    p_sess = sess;
    p_ok = ok;
    p_stmts = !done_;
    p_writes = List.rev !writes;
    p_busy = now () -. t_start -. !outside;
    p_words = (if traced then 0. else alloc_words () -. w0);
  }

(* The commit of a begun transaction, and its accounting. *)
let finish_txn ~acc p =
  let traced = p.p_traced and sess = p.p_sess in
  let t_start = now () in
  let w0 = if traced then 0. else alloc_words () in
  let commit () =
    if traced then
      Tracer.with_span "commit" (fun () ->
          Tracer.with_span "session.submit" (fun () -> Session.submit sess);
          Tracer.with_span "session.await" (fun () -> Session.await sess))
    else Session.commit sess
  in
  let ok =
    p.p_ok
    && ((not p.p_txn.commits)
       ||
       begin
         acc.attempted <- acc.attempted + 1;
         let c0 = now () in
         match traced_if traced ~txn_id:p.p_id commit with
         | lsn ->
             if not traced then Fbuf.push acc.commit_lat (now () -. c0);
             List.iteri
               (fun i s ->
                 acc.acked <- (lsn, (p.p_id * 64) + i, s) :: acc.acked;
                 acc.acked_bytes <- acc.acked_bytes + String.length s)
               p.p_writes;
             true
         | exception e ->
             (* A conflict, a refusal by admission control, or an error: the
                transaction is given up. *)
             prerr_endline ("bench: commit failed: " ^ Printexc.to_string e);
             acc.failed <- acc.failed + 1;
             Session.rollback sess;
             false
       end)
  in
  let busy = p.p_busy +. (now () -. t_start) in
  let n = Array.length p.p_txn.stmts in
  if traced then begin
    acc.traced_stmts <- acc.traced_stmts + n;
    acc.traced_s <- acc.traced_s +. busy
  end
  else begin
    acc.plain_stmts <- acc.plain_stmts + n;
    acc.plain_s <- acc.plain_s +. busy;
    Fbuf.push acc.txn_stmts (float_of_int p.p_stmts);
    Fbuf.push acc.txn_done (if ok then 1. else 0.);
    Fbuf.push acc.txn_busy busy;
    acc.plain_words <- acc.plain_words +. p.p_words +. (alloc_words () -. w0)
  end;
  if ok then begin
    acc.txns <- acc.txns + 1;
    if not traced then Fbuf.push acc.txn_lat busy
  end

(* A traced run alternates chunks of this many transactions between
   traced and untraced, so the garbage one mode allocates is mostly
   collected inside the same mode. It does not divide the checkpoint
   interval (256 records, one per transaction in [ingest_nulls]), so
   checkpoints fall in traced chunks too. *)
let trace_chunk = 20

(* A closed loop that writes runs on past its time until the journal grows
   past this many bytes (about 130 [oltp_fk] records, half a checkpoint
   cycle), so every run leaves a journal tail of about the same length and
   [recover_s] replays about the same amount. *)
let tail_bytes = 12 * 1024

let journal_bytes dir =
  match Unix.stat (Storage.Wal.file ~dir) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let run_client ~eng ~dir ~writes ~trace ~deadline (c : client) acc =
  let sessions =
    Array.map (fun d -> Session.attach ~semantics:(Semantics.of_dialect d) eng) c.semantics
  in
  let i = ref 0 and last = ref max_int in
  let tail_reached () =
    let j = journal_bytes dir in
    let crossed = j >= tail_bytes && !last < tail_bytes in
    last := j;
    crossed
  in
  (* A pipelined client's transaction awaiting its commit. *)
  let open_txn = ref None in
  let finish_open () =
    Option.iter (finish_txn ~acc) !open_txn;
    open_txn := None
  in
  while
    !i < Array.length c.stream
    && (now () < deadline || (writes && not (tail_reached ())))
  do
    let p =
      begin_txn ~acc ~sessions
        ~traced:(trace && !i / trace_chunk mod 2 = 1)
        ~txn_id:(!i + 1)
        c.stream.(!i)
    in
    if c.pipelined then begin
      finish_open ();
      open_txn := Some p
    end
    else finish_txn ~acc p;
    incr i
  done;
  finish_open ();
  if !i = Array.length c.stream && deadline < infinity then
    prerr_endline "bench: the client ran out of generated transactions before the time was up"

(* --------------------------- span analysis --------------------------- *)

(* Named stages: every statement is parse + one dml.* call, every commit is
   submit + await, and await splits at the engine's protocol notes into
   validate / wal_fsync / publish / checkpoint, or is queue_wait when
   another session led the flush. *)
type stage = { s_name : string; s_start : float; s_stop : float; s_storage : float }

let analyze spans =
  let children = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.add children s.Tracer.parent s) spans;
  let kids id =
    List.sort (fun a b -> compare a.Tracer.start b.Tracer.start) (Hashtbl.find_all children id)
  in
  let storage_in lo hi ks =
    List.fold_left
      (fun acc (k : Tracer.span) ->
        if String.starts_with ~prefix:"storage." k.name then
          acc +. Float.max 0. (Float.min hi k.stop -. Float.max lo k.start)
        else acc)
      0. ks
  in
  let stage name lo hi ks =
    { s_name = name; s_start = lo; s_stop = hi; s_storage = storage_in lo hi ks }
  in
  let await_stages (a : Tracer.span) =
    let ks = kids a.id in
    let notes =
      List.filter_map
        (fun (k : Tracer.span) ->
          if String.starts_with ~prefix:"note:group-commit:" k.name then
            Some (String.sub k.name 18 (String.length k.name - 18), k.start)
          else None)
        ks
    in
    if notes = [] then [ stage "session.queue_wait" a.start a.stop ks ]
    else
      let cursor = ref a.start in
      List.filter_map
        (fun (n, t) ->
          let lo = !cursor in
          cursor := t;
          match n with
          | "validated" -> Some (stage "session.validate" lo t ks)
          | "fsynced" -> Some (stage "session.wal_fsync" lo t ks)
          | "published" -> Some (stage "session.publish" lo t ks)
          | "checkpointed" ->
              (* The checkpoint begins with its first storage call. *)
              let first =
                List.fold_left
                  (fun m (k : Tracer.span) ->
                    if String.starts_with ~prefix:"storage." k.name && k.start >= lo then
                      Float.min m k.start
                    else m)
                  t ks
              in
              Some (stage "session.checkpoint" first t ks)
          | _ -> None)
        notes
  in
  let tops =
    List.filter
      (fun (s : Tracer.span) -> s.parent = 0 && (s.name = "stmt" || s.name = "commit"))
      spans
  in
  let stages =
    List.concat_map
      (fun (top : Tracer.span) ->
        List.concat_map
          (fun (k : Tracer.span) ->
            match k.name with
            | "session.await" -> await_stages k
            | n -> [ stage n k.start k.stop (kids k.id) ])
          (kids top.id))
      tops
  in
  let wall = List.fold_left (fun a (s : Tracer.span) -> a +. (s.stop -. s.start)) 0. tops in
  (wall, stages)

(* ------------------------------ output ------------------------------- *)

let json_num x =
  if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let json_str s = Printf.sprintf "%S" s

(* A metric without samples is [null]; the result line never has one. *)
let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n)
             (if Float.is_finite v then json_num v else "null")
             (json_str u))
         ms)
  ^ "}"

let print_metric (n, v, u) =
  if Float.is_nan v then Printf.printf "  %-32s n/a (no samples)\n" n
  else Printf.printf "  %-32s %.6g %s\n" n v u

(* ------------------------------- main -------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let reopen = ref "" and setup = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Inputs.names);
      ("--seed", Arg.Set_int seed, " PRNG seed for the inputs");
      ("--seconds", Arg.Set_float seconds, " closed-loop measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--reopen", Arg.Set_string reopen, " DIR: only time reopens of DIR (used by a run)");
      ("--setup", Arg.Set_string setup, " DIR: only time set-ups in DIR (used by a run)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Inputs.names) then
    fail "unknown workload %S (one of %s)" !workload (String.concat ", " Inputs.names);
  Par.Pool.set_domains (Inputs.pool_domains !workload);
  if !reopen <> "" then begin
    reopen_main !reopen;
    exit 0
  end;
  let traced = !trace = 1 in
  let w =
    match Inputs.make ~seed:!seed !workload with
    | Some w -> w
    | None -> assert false (* checked above *)
  in
  if !setup <> "" then begin
    setup_main w !setup;
    exit 0
  end;
  phase "inputs";
  let work =
    Filename.concat ".bench_work" (Printf.sprintf "%s-s%d-p%d" w.name !seed (Unix.getpid ()))
  in
  rm_rf work;
  mkdir_p work;
  let dir = Filename.concat work "db" in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" w.name !seed !seconds !trace;
  let params = w.params @ [ ("pool_domains", string_of_int (Par.Pool.domains ())) ] in
  List.iter (fun (k, v) -> Printf.printf "  param %s = %s\n" k v) params;
  Printf.printf
    "  flush policy: Session.default_config (group commit, fsync per batch, \
     flush_window_s 0, checkpoint_every 256)\n";
  (* Set-up, timed several times in a child process, then once more here
     for the engine that serves the run. *)
  let setups =
    times_in_child
      [
        "--workload"; w.name; "--seed"; string_of_int !seed;
        "--setup"; Filename.concat work "setup";
      ]
      ~out:(Filename.concat work "setup.out")
  in
  rm_rf dir;
  let cat, eng = build w ~dir in
  phase "setup";
  if read_only w then expect_answers w cat;
  phase "answers";
  (* The timed loop, from a compacted heap. A fixed stream is run again,
     each pass from a fresh set-up, until the run's time is up; the state
     check covers the last pass. *)
  Gc.compact ();
  Tracer.reset ();
  let io0 = Tracer.snapshot () in
  let gc0 = Gc.quick_stat () in
  let acc = new_acc () in
  let t_start = now () in
  let deadline = if w.fixed then infinity else t_start +. !seconds in
  let writes = not (read_only w) in
  (* The engines of earlier passes: their counts, and the storage calls
     their set-ups made. *)
  let eng = ref eng and done_stats = ref [] and setup_io = ref [] in
  let rec pass () =
    run_client ~eng:!eng ~dir ~writes ~trace:traced ~deadline w.client acc;
    if w.fixed && now () < t_start +. !seconds then begin
      Session.shutdown !eng;
      done_stats := Session.stats !eng :: !done_stats;
      acc.acked <- [];
      rm_rf dir;
      let before = Tracer.snapshot () in
      eng := snd (build w ~dir);
      setup_io := Tracer.diff (Tracer.snapshot ()) before :: !setup_io;
      Gc.compact ();
      pass ()
    end
  in
  pass ();
  let elapsed = now () -. t_start in
  phase "loop";
  Session.shutdown !eng;
  let io1 = Tracer.snapshot () in
  let gc1 = Gc.quick_stat () in
  let heap_peak_mb =
    float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let disk_mb = float_of_int (dir_bytes dir) /. 1048576. in
  let journal_tail = journal_bytes dir in
  let est = Session.stats !eng :: !done_stats in
  let est_sum f = List.fold_left (fun a s -> a + f s) 0 est in
  let loop_spans = Tracer.spans () in
  (* Reopen: recovery time, and the durable state for the check. *)
  let pristine = Filename.concat work "pristine" in
  copy_dir dir pristine;
  let recovers =
    times_in_child [ "--workload"; w.name; "--reopen"; pristine ]
      ~out:(Filename.concat work "reopen.out")
  in
  (* One more reopen here, traced in a traced run: the durable state for the
     check, and the recovery's storage reads. *)
  Tracer.reset ();
  let before = Tracer.snapshot () in
  let _, e, report =
    reopen_copy ~pristine ~rdir:(Filename.concat work "reopen")
      ~wrap:(fun f ->
        if traced then Tracer.in_txn ~txn:(-1) (fun () -> Tracer.with_span "recover" f)
        else f ())
  in
  let read_io = Tracer.diff (Tracer.snapshot ()) before in
  let durable = (Session.engine_snapshot e).catalog in
  let replayed =
    List.fold_left
      (fun a (_, st) -> match st with Storage.Persist.Recovered n -> a + n | _ -> a)
      0 report.Storage.Persist.statuses
  in
  Session.shutdown e;
  let recover_spans = Tracer.spans () in
  phase "reopen";
  (* The reference model: the acknowledged writes, in LSN order, applied
     through Dml.exec to the set-up catalog. *)
  let acked = List.sort compare acc.acked in
  let state_ok =
    let replay c (_, _, s) = (Dml.exec_string c s).Dml.catalog in
    match List.fold_left replay cat acked with
    | model ->
        List.sort compare (Storage.Catalog.names model)
        = List.sort compare (Storage.Catalog.names durable)
        && List.for_all
             (fun n ->
               Xrel.equal (Storage.Catalog.relation model n)
                 (Storage.Catalog.relation durable n))
             (Storage.Catalog.names model)
    | exception e ->
        prerr_endline ("bench: the reference model failed: " ^ Printexc.to_string e);
        false
  in
  phase "model";
  let mismatches = acc.mismatches in
  let attempted = acc.attempted and failed = acc.failed in
  let stmts = acc.stmts and txns = acc.txns in
  (* Throughput: each client's untraced transactions in ten consecutive
     chunks; a chunk's rate is the sum over clients of statements (or
     completed transactions) per second busy; the median chunk is
     reported, so a transient stall elsewhere on the host moves one chunk
     rather than the result. *)
  let rate per_txn =
    let chunks = 10 in
    median
      (List.init chunks (fun k ->
           let n = acc.txn_busy.Fbuf.n in
           let lo = k * n / chunks and hi = (k + 1) * n / chunks in
           let work = ref 0. and time = ref 0. in
           for i = lo to hi - 1 do
             work := !work +. per_txn i;
             time := !time +. acc.txn_busy.Fbuf.a.(i)
           done;
           if !time > 0. then !work /. !time else 0.))
  in
  let stmt_rate = rate (fun i -> acc.txn_stmts.Fbuf.a.(i)) in
  let txn_rate = rate (fun i -> acc.txn_done.Fbuf.a.(i)) in
  (* The loop's storage calls, less the set-ups between passes. *)
  let io_loop = List.fold_left Tracer.diff (Tracer.diff io1 io0) !setup_io in
  let mut_bytes = Tracer.get io_loop "append_bytes" + Tracer.get io_loop "write_bytes" in
  let acked_bytes = acc.acked_bytes in
  let txn_lat = sorted (Fbuf.to_array acc.txn_lat) in
  let ms = 1000. in
  let ratio a b = if b = 0. then nan else a /. b in
  let fi = float_of_int in
  let detail_e2e =
    [
      ("setup_s", median setups, "s");
      ("stmt_per_s", stmt_rate, "1/s");
      ("txn_per_s", txn_rate, "1/s");
      ("txn_p50_ms", ms *. percentile txn_lat 50., "ms");
      ("disk_mb", disk_mb, "MB");
      ("heap_peak_mb", heap_peak_mb, "MB");
    ]
  in
  let by_kind name k =
    let l = sorted (Fbuf.to_array acc.stmt_lat.(kind_index k)) in
    [
      (name ^ "_p50_ms", ms *. percentile l 50., "ms");
      (name ^ "_p99_ms", ms *. percentile l 99., "ms");
    ]
  in
  let writes_lat =
    sorted
      (Array.concat
         (List.map
            (fun k -> Fbuf.to_array acc.stmt_lat.(kind_index k))
            [ Append; Delete; Replace; Cascade ]))
  in
  let commit_lat = sorted (Fbuf.to_array acc.commit_lat) in
  let detail_ops =
    ("recover_s", median recovers, "s")
    :: ("txn_p99_ms", ms *. percentile txn_lat 99., "ms")
    :: by_kind "retrieve" Retrieve
    @ [
        ("write_p50_ms", ms *. percentile writes_lat 50., "ms");
        ("write_p99_ms", ms *. percentile writes_lat 99., "ms");
        ("commit_p50_ms", ms *. percentile commit_lat 50., "ms");
        ("commit_p99_ms", ms *. percentile commit_lat 99., "ms");
        ("failed_frac", ratio (fi failed) (fi attempted), "ratio");
        ("write_amp", ratio (fi mut_bytes) (fi acked_bytes), "ratio");
      ]
  in
  let samples =
    [
      ("txn", Array.length txn_lat);
      ("retrieve", acc.stmt_lat.(kind_index Retrieve).Fbuf.n);
      ("write", Array.length writes_lat);
      ("commit", Array.length commit_lat);
    ]
  in
  (* Per-layer metrics, from the traced half of the run. *)
  let per_layer, coverage =
    if not traced then ([], 1.)
    else begin
      let wall, stages = analyze loop_spans in
      let self_of n =
        List.fold_left
          (fun a s -> if s.s_name = n then a +. (s.s_stop -. s.s_start -. s.s_storage) else a)
          0. stages
      in
      let covered = List.fold_left (fun a s -> a +. (s.s_stop -. s.s_start)) 0. stages in
      let storage = List.fold_left (fun a s -> a +. s.s_storage) 0. stages in
      let share n = ratio (self_of n) wall in
      let parse =
        List.filter_map
          (fun (s : Tracer.span) ->
            if s.name = "quel.parse" then Some (s.stop -. s.start) else None)
          loop_spans
      in
      let durations n =
        List.filter_map
          (fun s -> if s.s_name = n then Some (s.s_stop -. s.s_start) else None)
          stages
      in
      let storage_spans sp =
        List.filter (fun (s : Tracer.span) -> String.starts_with ~prefix:"storage." s.name) sp
      in
      let mut_spans =
        List.filter
          (fun (s : Tracer.span) -> s.name <> "storage.read")
          (storage_spans loop_spans @ storage_spans recover_spans)
      in
      let read_s =
        List.fold_left
          (fun a (s : Tracer.span) ->
            if s.name = "storage.read" then a +. (s.stop -. s.start) else a)
          0. recover_spans
      in
      let traced_rate = ratio (fi acc.traced_stmts) acc.traced_s in
      let plain_rate = ratio (fi acc.plain_stmts) acc.plain_s in
      (* A layer a workload never enters reports 0. *)
      let z x = if Float.is_nan x then 0. else x in
      let per num den = z (ratio (fi num) (fi den)) in
      let per_s num den = z (ratio num den) in
      let io n = fi (Tracer.get io_loop n) in
      let layers =
        [
          (* A mean: single parses are a few clock ticks long. *)
          ( "quel.parse_us",
            1e6 *. List.fold_left ( +. ) 0. parse /. fi (List.length parse),
            "us" );
          ("quel.parse_share", z (share "quel.parse"), "ratio");
          ("dml.retrieve_share", z (share "dml.retrieve"), "ratio");
          ("dml.append_share", z (share "dml.append"), "ratio");
          ("dml.delete_share", z (share "dml.delete"), "ratio");
          ("dml.replace_share", z (share "dml.replace"), "ratio");
          ( "dml.rows_examined_per_row",
            per_s acc.examined acc.result_rows,
            "ratio" );
          ("dml.noinfo_frac", per acc.noinfo acc.appends, "ratio");
          ("dml.delta_tuples", per acc.delta_tuples acc.writes, "count");
          ( "plan.compile_over_eval",
            per_s acc.plan_compile_s acc.eval_s,
            "ratio" );
          ("plan.run_over_eval", per_s acc.plan_run_s acc.eval_s, "ratio");
          ("constraint.cascade_frac", per acc.cascades acc.writes, "ratio");
          ("nullrel.evicted_per_append", per acc.evicted acc.appends, "ratio");
          ("session.submit_share", z (share "session.submit"), "ratio");
          ("session.validate_share", z (share "session.validate"), "ratio");
          ("session.wal_fsync_share", z (share "session.wal_fsync"), "ratio");
          ("session.publish_share", z (share "session.publish"), "ratio");
          ("session.checkpoint_share", z (share "session.checkpoint"), "ratio");
          ("session.queue_wait_share", z (share "session.queue_wait"), "ratio");
          ( "session.records_per_batch",
            z (ratio (fi (est_sum (fun e -> e.Session.records)))
                 (fi (est_sum (fun e -> e.Session.batches)))),
            "count" );
          ("session.conflicts", fi (est_sum (fun e -> e.Session.conflicts)), "count");
          ("session.queue_full", fi (est_sum (fun e -> e.Session.queue_full)), "count");
          ("storage.io_share", z (ratio storage wall), "ratio");
          ( "storage.io_ms",
            1000. *. median (List.map (fun (s : Tracer.span) -> s.stop -. s.start) mut_spans),
            "ms" );
          ("storage.append_calls", io "append_calls", "count");
          ("storage.append_bytes", io "append_bytes", "bytes");
          ("storage.write_calls", io "write_calls", "count");
          ("storage.write_bytes", io "write_bytes", "bytes");
          ("storage.rename_calls", io "rename_calls", "count");
          ("storage.fsync_dir_calls", io "fsync_dir_calls", "count");
          ("recover_s", median recovers, "s");
          ("storage.read_ms", 1000. *. read_s, "ms");
          ("storage.read_bytes", fi (Tracer.get read_io "read_bytes"), "bytes");
          ("storage.replayed_records", fi replayed, "count");
          ( "gc.alloc_words_per_stmt",
            ratio acc.plain_words (fi acc.plain_stmts),
            "words" );
          ( "gc.major_collections",
            fi (gc1.Gc.major_collections - gc0.Gc.major_collections),
            "count" );
          ("txn_p99_ms", ms *. percentile txn_lat 99., "ms");
          ("failed_frac", ratio (fi failed) (fi attempted), "ratio");
          ("write_amp", z (ratio (fi mut_bytes) (fi acked_bytes)), "ratio");
          ("trace.coverage", ratio covered wall, "ratio");
          ("trace.overhead_frac", 1. -. ratio traced_rate plain_rate, "ratio");
        ]
      in
      Printf.printf "traced stage medians (inclusive):\n";
      List.iter
        (fun (n, unit_, scale) ->
          let d = durations n in
          print_metric
            ( Printf.sprintf "%s (n=%d)" n (List.length d),
              (if d = [] then nan else scale *. median d),
              unit_ ))
        [
          ("quel.parse", "us", 1e6);
          ("dml.retrieve", "ms", 1e3);
          ("dml.append", "ms", 1e3);
          ("dml.delete", "ms", 1e3);
          ("dml.replace", "ms", 1e3);
          ("session.submit", "ms", 1e3);
          ("session.validate", "ms", 1e3);
          ("session.wal_fsync", "ms", 1e3);
          ("session.publish", "us", 1e6);
          ("session.checkpoint", "ms", 1e3);
          ("session.queue_wait", "ms", 1e3);
        ];
      (* Spans go to a JSON-lines file beside the run directory. *)
      let oc =
        open_out
          (Filename.concat ".bench_work" (Printf.sprintf "spans-%s-s%d.jsonl" w.name !seed))
      in
      List.iter
        (fun (s : Tracer.span) ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"txn\": %d, \"start\": %.6f, \
             \"end\": %.6f, \"bytes\": %d}\n"
            s.id s.name s.parent s.txn s.start s.stop s.bytes)
        (loop_spans @ recover_spans);
      close_out oc;
      (layers, ratio covered wall)
    end
  in
  let coverage_ok = (not traced) || coverage >= 0.9 in
  let correct = state_ok && mismatches = 0 && coverage_ok in
  let times l = String.concat " " (List.map (Printf.sprintf "%.6f") l) in
  Printf.printf "run: %.3f s, %d statements, %d transactions, %d failed of %d attempted\n"
    elapsed stmts txns failed attempted;
  Printf.printf "samples:%s\n"
    (String.concat "" (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) samples));
  Printf.printf "setup_s runs: %s\n" (times (List.rev setups));
  Printf.printf "recover_s runs: %s (journal tail %d bytes)\n" (times recovers) journal_tail;
  Printf.printf
    "check: reopened state %s the serial model (%d acknowledged writes); %d answer mismatches%s\n"
    (if state_ok then "equals" else "DIFFERS FROM")
    (List.length acked) mismatches
    (if traced then Printf.sprintf "; stage coverage %.3f (needs >= 0.9)" coverage else "");
  Printf.printf "end-to-end:\n";
  List.iter print_metric (detail_e2e @ detail_ops);
  if traced then begin
    Printf.printf "per-layer:\n";
    List.iter print_metric per_layer
  end;
  rm_rf work;
  (* Everything above as one JSON line, for the trajectory record. *)
  let fields f l = String.concat ", " (List.map f l) in
  Printf.printf
    "detail {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"params\": {%s}, \"samples\": {%s}, \"end_to_end\": %s, \"per_layer\": %s}\n"
    (json_str w.name) !seed (json_num !seconds) !trace
    (fields (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) (json_str v)) params)
    (fields (fun (k, n) -> Printf.sprintf "%s: %d" (json_str k) n) samples)
    (metrics_json (detail_e2e @ detail_ops))
    (metrics_json per_layer);
  let reported = if traced then per_layer else detail_e2e in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then fail "metric %s has no value" n)
    reported;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct attempted failed (metrics_json reported)
