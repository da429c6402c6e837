(* The three workloads' inputs, generated from the seed before anything is
   timed: the base relations to load, the DDL to declare, and the client's
   stream of transactions, each a list of Quel statement strings. The engine
   only ever receives these strings. *)

open Nullrel

type kind = Retrieve | Append | Delete | Replace | Cascade

let kind_name = function
  | Retrieve -> "retrieve"
  | Append -> "append"
  | Delete -> "delete"
  | Replace -> "replace"
  | Cascade -> "cascade"

(* The answer a retrieve must produce, computed by the bench with
   [Quel.Eval] before the timed loop; [Unchecked] where the answer depends
   on the interleaving (the final state is checked instead). *)
type expect = Unchecked | Lower of Xrel.t | Bands of Quel.Eval.bands

type stmt = { kind : kind; text : string; mutable expect : expect }

type txn = {
  sess : int;  (** Which of the client's sessions issues it. *)
  stmts : stmt array;
  commits : bool;  (** Read-only transactions end with their answer. *)
}

type client = {
  semantics : Semantics.dialect array;  (** One session per entry. *)
  stream : txn array;
  pipelined : bool;
      (** Transactions overlap by one: each commit waits until the next
          transaction's statements have run. *)
}

type t = {
  name : string;
  params : (string * string) list;  (** Printed with the results. *)
  relations : (Schema.t * Tuple.t list) list;
  ddl : string list;  (** Constraint DDL, run through [Dml.exec_string]. *)
  indexes : (string * string) list;  (** Hash indexes: relation, attribute. *)
  client : client;
  fixed : bool;
      (** The stream is a load, run whole, again from a fresh set-up until
          the run's time is up; otherwise a closed loop over the stream
          until the run's time is up. *)
}

let names = [ "oltp_fk"; "join_read"; "ingest_nulls" ]

(* The kernel pool's size for a workload's whole run: at most two domains
   in all, sessions included. *)
let pool_domains = function "join_read" -> 2 | _ -> 1
let stmt kind text = { kind; text; expect = Unchecked }
let int v = Value.Int v

(* ------------------------------ oltp_fk ------------------------------ *)

(* PARENT(K key, V) and CHILD(F, W, X) with a cascading foreign key
   CHILD(F) -> PARENT(K). Session [s] of two owns the parents with
   K = s (mod 2) and the children with F = W = s (mod 2): each session
   writes only its own rows, so snapshot isolation and the serial replay
   of the acknowledged transactions in LSN order agree exactly.

   The two sessions take turns on one domain, pipelined: a session's
   statements run while the other's transaction is still open, then that
   one commits, so every commit is validated against the other session's
   commit made since its snapshot. They do not run on a domain each
   because the engine is not safe for that: its subsumption index, shared
   by the snapshots of both sessions, forces lazy values and fills hash
   tables on first use, and two domains doing so at once fail with
   CamlinternalLazy.Undefined. *)
let oltp_fk ~seed =
  let parents = 10_000 and children = 20_000 and x_null = 0.1 in
  let ws = parents / 2 and txns = 12_000 in
  let g = Workload.Prng.create seed in
  let k_, v_, f_, w_, x_ = Attr.(make "K", make "V", make "F", make "W", make "X") in
  let parent_rows =
    List.init parents (fun k ->
        Tuple.of_list [ (k_, int k); (v_, int (Workload.Prng.int g 1000)) ])
  in
  let x_value g =
    if Workload.Prng.bool g x_null then None else Some (Workload.Prng.int g 1000)
  in
  let child_rows =
    List.init children (fun _ ->
        let f = Workload.Prng.int g parents in
        let w = (2 * Workload.Prng.int g ws) + (f mod 2) in
        let base = [ (f_, int f); (w_, int w) ] in
        Tuple.of_list
          (match x_value g with Some x -> (x_, int x) :: base | None -> base))
  in
  let session s =
    let g = Workload.Prng.create ((seed * 7919) + s + 1) in
    (* The session's live parents, for references and cascades. *)
    let live = Array.init (parents / 2) (fun i -> (2 * i) + s) in
    let n_live = ref (Array.length live) in
    let pick_live () = live.(Workload.Prng.int g !n_live) in
    let own_w () = (2 * Workload.Prng.int g ws) + s in
    Array.init (txns / 2) (fun _ ->
          let read =
            Printf.sprintf "range of p is PARENT retrieve (p.K, p.V) where p.K = %d"
              ((2 * Workload.Prng.int g (parents / 2)) + s)
          in
          let write =
            if Workload.Prng.int g 50 = 0 && !n_live > 1 then begin
              let i = Workload.Prng.int g !n_live in
              let k = live.(i) in
              live.(i) <- live.(!n_live - 1);
              decr n_live;
              stmt Cascade
                (Printf.sprintf "range of p is PARENT delete p where p.K = %d" k)
            end
            else
              match Workload.Prng.int g 4 with
              | 0 | 1 ->
                  let f = pick_live () and w = own_w () in
                  stmt Append
                    (match x_value g with
                    | Some x ->
                        Printf.sprintf "append to CHILD (F = %d, W = %d, X = %d)" f
                          w x
                    | None -> Printf.sprintf "append to CHILD (F = %d, W = %d)" f w)
              | 2 ->
                  stmt Delete
                    (Printf.sprintf "range of c is CHILD delete c where c.W = %d"
                       (own_w ()))
              | _ ->
                  stmt Replace
                    (Printf.sprintf
                       "range of c is CHILD replace c (X = %d) where c.W = %d"
                       (Workload.Prng.int g 1000) (own_w ()))
          in
          { sess = s; stmts = [| stmt Retrieve read; write |]; commits = true })
  in
  let own = [| session 0; session 1 |] in
  let stream = Array.init txns (fun i -> own.(i mod 2).(i / 2)) in
  {
    name = "oltp_fk";
    params =
      [
        ("parents", string_of_int parents);
        ("children", string_of_int children);
        ("x_null", string_of_float x_null);
        ("sessions", "2");
      ];
    relations =
      [
        ( Schema.make ~key:[ "K" ] "PARENT" [ ("K", Domain.Ints); ("V", Domain.Ints) ],
          parent_rows );
        ( Schema.make "CHILD"
            [ ("F", Domain.Ints); ("W", Domain.Ints); ("X", Domain.Ints) ],
          child_rows );
      ];
    ddl = [ "constrain fk CHILD (F) to PARENT (K) on delete cascade" ];
    indexes = [ ("PARENT", "K"); ("CHILD", "W") ];
    client = { semantics = [| Semantics.Ni_lower; Semantics.Ni_lower |]; stream; pipelined = true };
    fixed = false;
  }

(* ----------------------------- join_read ----------------------------- *)

(* Three generated relations and a fixed cycle of 64 two-range retrieves:
   an equijoin onto the indexed R2.A1, an equijoin plus a constant
   restriction, and an equijoin between two unindexed columns. Every
   column holds nulls, so every join runs on nullable columns. One query
   in four is issued by a session attached under Codd's dialect. *)
let join_read ~seed =
  let rows = 160 and cycle = 64 in
  let spec =
    { Workload.Gen.arity = 3; rows; domain_size = rows; null_density = 0.1 }
  in
  let g = Workload.Prng.create seed in
  let db = Workload.Gen.db g spec 3 in
  let attr () = Printf.sprintf "A%d" (1 + Workload.Prng.int g 3) in
  let other_than r = Workload.Prng.choose g (List.filter (( <> ) r) [ "R1"; "R2"; "R3" ]) in
  let query i =
    let a, b, cond =
      match i mod 3 with
      | 0 ->
          let a = other_than "R2" in
          (a, "R2", Printf.sprintf "a.%s = b.A1" (attr ()))
      | 1 ->
          let a = Workload.Prng.choose g [ "R1"; "R2"; "R3" ] in
          let b = other_than a in
          ( a,
            b,
            Printf.sprintf "a.%s = b.%s and b.%s < %d" (attr ()) (attr ()) (attr ())
              (Workload.Prng.int g rows) )
      | _ ->
          let a = Workload.Prng.choose g [ "R1"; "R3" ] in
          let b = other_than a in
          (a, b, Printf.sprintf "a.%s = b.A%d" (attr ()) (2 + Workload.Prng.int g 2))
    in
    stmt Retrieve
      (Printf.sprintf "range of a is %s range of b is %s retrieve (a.%s, b.%s) where %s"
         a b (attr ()) (attr ()) cond)
  in
  let queries = Array.init cycle query in
  let stream =
    Array.init 200_000 (fun i ->
        {
          sess = (if i mod 4 = 3 then 1 else 0);
          stmts = [| queries.(i mod cycle) |];
          commits = false;
        })
  in
  {
    name = "join_read";
    params =
      [
        ("relations", "3");
        ("rows", string_of_int rows);
        ("arity", "3");
        ("domain", string_of_int rows);
        ("null_density", "0.1");
        ("cycle", string_of_int cycle);
        ("codd_share", "0.25");
      ];
    relations =
      List.map
        (fun (_, (schema, x)) -> (schema, Xrel.to_list x))
        db;
    ddl = [];
    indexes = [ ("R2", "A1") ];
    client = { semantics = [| Semantics.Ni_lower; Semantics.Codd_maybe |]; stream; pipelined = false };
    fixed = false;
  }

(* ---------------------------- ingest_nulls --------------------------- *)

(* R(A1..A4) over a 64-value domain with 30% nulls, seeded with 5,000
   generated rows; one session then appends 16,000 generated rows in
   transactions of 16. Many appends add no information and some evict the
   rows they subsume, so minimality maintenance does real work. *)
let ingest_nulls ~seed =
  let seed_rows = 5_000 and appends = 16_000 and per_txn = 16 in
  let spec =
    { Workload.Gen.arity = 4; rows = seed_rows; domain_size = 64; null_density = 0.3 }
  in
  let g = Workload.Prng.create seed in
  let rows = Workload.Gen.tuples g spec in
  let rec row () =
    let t = Workload.Gen.tuple g spec in
    if Tuple.is_null_tuple t then row () else t
  in
  let append () =
    let t = row () in
    let fields =
      List.map
        (fun (a, v) -> Printf.sprintf "%s = %s" (Attr.name a) (Value.to_string v))
        (Tuple.to_list t)
    in
    stmt Append (Printf.sprintf "append to R (%s)" (String.concat ", " fields))
  in
  let stream =
    Array.init (appends / per_txn) (fun _ ->
        { sess = 0; stmts = Array.init per_txn (fun _ -> append ()); commits = true })
  in
  {
    name = "ingest_nulls";
    params =
      [
        ("seed_rows", string_of_int seed_rows);
        ("appends", string_of_int appends);
        ("appends_per_txn", string_of_int per_txn);
        ("arity", "4");
        ("domain", "64");
        ("null_density", "0.3");
      ];
    relations = [ (Workload.Gen.schema spec "R", rows) ];
    ddl = [];
    indexes = [];
    client = { semantics = [| Semantics.Ni_lower |]; stream; pipelined = false };
    fixed = true;
  }

let make ~seed = function
  | "oltp_fk" -> Some (oltp_fk ~seed)
  | "join_read" -> Some (join_read ~seed)
  | "ingest_nulls" -> Some (ingest_nulls ~seed)
  | _ -> None
