(** Bechamel micro-benchmarks of the real engine primitives (host clock,
    as opposed to the simulated-time experiments): SHA-256, signatures,
    field exponentiation, Merkle roots, inserts, indexed selects, joins,
    the complex-group contract's query, a hot-key UPDATE and SSI conflict
    detection.
    Each row reports both costs: nanoseconds and minor-heap words per run. *)

open Bechamel
open Toolkit
module Value = Brdb_storage.Value
module Catalog = Brdb_storage.Catalog
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

(* Runs [sqls] in one transaction committed as block [height]. *)
let commit_block (catalog, mgr) ~height sqls =
  let txn =
    match
      Manager.begin_txn mgr
        ~global_id:(Printf.sprintf "block-%d" height)
        ~client:"sys" ~snapshot_height:(height - 1) ()
    with
    | Ok t -> t
    | Error _ -> assert false
  in
  List.iter
    (fun sql ->
      match Exec.execute_sql catalog txn sql with
      | Ok _ -> ()
      | Error e -> failwith (Exec.error_to_string e))
    sqls;
  Manager.commit mgr txn ~height

let fixture rows =
  let catalog = Catalog.create () in
  let fx = (catalog, Manager.create catalog) in
  commit_block fx ~height:1
    ("CREATE TABLE items (id INT PRIMARY KEY, grp INT, qty INT)"
     :: "CREATE TABLE grps (grp INT PRIMARY KEY, name TEXT)"
     :: List.init 10 (fun g -> Printf.sprintf "INSERT INTO grps VALUES (%d, 'g%d')" g g)
    @ List.init rows (fun i ->
          Printf.sprintf "INSERT INTO items VALUES (%d, %d, %d)" i (i mod 10) (i mod 17)));
  fx

module Crypto = Brdb_crypto

let bench_sha256 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () -> Crypto.Sha256.digest payload))

let bench_sha256_small =
  let payload = String.make 50 'x' in
  Test.make ~name:"sha256 (50 B)" (Staged.stage (fun () -> Crypto.Sha256.digest payload))

let sk, pk = Crypto.Schnorr.keygen ~seed:"bench"

let bench_sign =
  Test.make ~name:"schnorr sign" (Staged.stage (fun () -> Crypto.Schnorr.sign sk "payload"))

let bench_verify =
  let s = Crypto.Schnorr.sign sk "payload" in
  Test.make ~name:"schnorr verify"
    (Staged.stage (fun () -> assert (Crypto.Schnorr.verify pk "payload" s)))

let bench_pow =
  let e = Int64.sub Crypto.Field61.p 2L in
  Test.make ~name:"field61 pow" (Staged.stage (fun () -> Crypto.Field61.pow 37L e))

let bench_merkle =
  let leaves = List.init 100 (Printf.sprintf "leaf-%04d") in
  Test.make ~name:"merkle root (100 leaves)"
    (Staged.stage (fun () -> Crypto.Merkle.root leaves))

let with_txn ?(height = 1) ?(after_abort = ignore) (catalog, mgr) f =
  let id = ref 0 in
  Staged.stage (fun () ->
      incr id;
      let txn =
        match
          Manager.begin_txn mgr
            ~global_id:(Printf.sprintf "b%d" !id)
            ~client:"bench" ~snapshot_height:height ()
        with
        | Ok t -> t
        | Error _ -> assert false
      in
      f catalog txn !id;
      Manager.abort mgr txn (Brdb_txn.Txn.Contract_error "bench");
      after_abort txn;
      Manager.release mgr txn)

let bench_insert =
  let fx = fixture 1000 in
  Test.make ~name:"INSERT (single row)"
    (with_txn fx (fun catalog txn i ->
         match
           Exec.execute_sql catalog txn
             (Printf.sprintf "INSERT INTO items VALUES (%d, 1, 1)" (100000 + i))
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let bench_pk_select =
  let fx = fixture 1000 in
  Test.make ~name:"SELECT by primary key"
    (with_txn fx (fun catalog txn i ->
         match
           Exec.execute_sql catalog txn
             (Printf.sprintf "SELECT qty FROM items WHERE id = %d" (i mod 1000))
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let bench_join_aggregate =
  let fx = fixture 1000 in
  Test.make ~name:"join + aggregate (100 rows)"
    (with_txn fx (fun catalog txn _ ->
         match
           Exec.execute_sql catalog txn
             "SELECT SUM(i.qty) FROM items i JOIN grps g ON i.grp = g.grp WHERE i.grp = 3"
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

(* A/B of the executor fast paths against the seed nested-loop/sort
   executor (hash_ops = false) on the same fixture. *)
let bench_query ~name ~hash_ops sql =
  let fx = fixture 1000 in
  let mode = { Exec.default_mode with Exec.hash_ops } in
  Test.make ~name
    (with_txn fx (fun catalog txn _ ->
         match Exec.execute_sql catalog txn ~mode sql with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let join_sql =
  "SELECT g.name, i.qty FROM items i JOIN grps g ON i.grp = g.grp WHERE i.qty > 8"

let agg_sql = "SELECT grp, COUNT(*), SUM(qty) FROM items GROUP BY grp"

let topk_sql = "SELECT id, qty FROM items ORDER BY qty, id LIMIT 5"

let bench_hash_join = bench_query ~name:"equi-join 1000x10 (hash)" ~hash_ops:true join_sql

let bench_nl_join =
  bench_query ~name:"equi-join 1000x10 (nested loop)" ~hash_ops:false join_sql

let bench_hash_agg = bench_query ~name:"GROUP BY 1000 rows (hash)" ~hash_ops:true agg_sql

let bench_sort_agg =
  bench_query ~name:"GROUP BY 1000 rows (sorted map)" ~hash_ops:false agg_sql

let bench_topk = bench_query ~name:"ORDER BY LIMIT 5 (top-k heap)" ~hash_ops:true topk_sql

let bench_sort_limit =
  bench_query ~name:"ORDER BY LIMIT 5 (full sort)" ~hash_ops:false topk_sql

(* The complex-group contract's query (Fig. 7) on the benchmark's table
   shapes: 100 parts, 400 orders over 50 customers, so each run joins 8
   orders to their parts, groups and keeps the best group. *)
let bench_group_query =
  let catalog = Catalog.create () in
  let fx = (catalog, Manager.create catalog) in
  commit_block fx ~height:1
    ([
       "CREATE TABLE parts (part_id INT PRIMARY KEY, price INT, grp INT)";
       "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, part_id INT, qty INT)";
       "CREATE INDEX orders_customer ON orders (customer_id)";
     ]
    @ List.init 100 (fun p ->
          Printf.sprintf "INSERT INTO parts VALUES (%d, %d, %d)" p ((p mod 20) + 1) (p mod 5))
    @ List.init 400 (fun o ->
          Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, %d)" o (o mod 50) (o mod 100)
            ((o mod 7) + 1)));
  let stmt =
    Result.get_ok
      (Brdb_sql.Parser.parse
         "SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON o.part_id = \
          p.part_id WHERE o.customer_id = $1 GROUP BY p.grp ORDER BY t DESC LIMIT 1")
  in
  Test.make ~name:"contract: complex-group query"
    (with_txn fx (fun catalog txn i ->
         match Exec.execute catalog txn ~params:[| Value.Int (i mod 50) |] stmt with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

(* An UPDATE whose key has 300 committed versions (one per block). Each
   run's aborted version is dropped from the indexes again, so the chain
   the probe walks stays at 300. *)
let bench_hot_update =
  let ((catalog, _) as fx) = fixture 1000 in
  for height = 2 to 300 do
    commit_block fx ~height [ "UPDATE items SET qty = qty + 1 WHERE id = 7" ]
  done;
  let items = Option.get (Catalog.find catalog "items") in
  let drop_new_version txn =
    List.iter
      (function
        | Brdb_txn.Txn.W_update { new_vid; _ } ->
            Brdb_storage.Table.remove_from_indexes items
              (Brdb_storage.Table.get_version items new_vid)
        | _ -> ())
      txn.Brdb_txn.Txn.writes
  in
  let stmt =
    Result.get_ok (Brdb_sql.Parser.parse "UPDATE items SET qty = qty + 1 WHERE id = 7")
  in
  Test.make ~name:"UPDATE hot key (300 versions)"
    (with_txn ~height:300 ~after_abort:drop_new_version fx (fun catalog txn _ ->
         match Exec.execute catalog txn stmt with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

(* One block's SSI graph (§3.3.3): [n] pending transactions, each reading
   a group by primary key and inserting an item — a lookup-then-insert
   contract. Detection cost should grow linearly with [n]. *)
let bench_detect n =
  let catalog, mgr = fixture 100 in
  let txns =
    List.init n (fun i ->
        match
          Manager.begin_txn mgr ~global_id:(Printf.sprintf "d%d" i) ~client:"bench"
            ~snapshot_height:1 ()
        with
        | Error _ -> assert false
        | Ok txn ->
            List.iter
              (fun sql ->
                match Exec.execute_sql catalog txn sql with
                | Ok _ -> ()
                | Error e -> failwith (Exec.error_to_string e))
              [
                Printf.sprintf "SELECT name FROM grps WHERE grp = %d" (i mod 10);
                Printf.sprintf "INSERT INTO items VALUES (%d, %d, 1)" (100000 + i) (i mod 10);
              ];
            txn)
  in
  Test.make
    ~name:(Printf.sprintf "ssi detect (%d txns)" n)
    (Staged.stage (fun () -> Brdb_ssi.Detect.compute catalog txns))

(* Minor-heap words per run, counted as [Instance.minor_allocated] counts
   them but read from [Gc.minor_words]: on OCaml 5 the [Gc.quick_stat]
   figure that instance reads moves only at minor collections, so a
   primitive allocating a few dozen words per run would read as 0. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-allocated"
  let unit () = "words"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_allocated =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let instances = [ Instance.monotonic_clock; minor_allocated ]

let benchmark () =
  let tests =
    Test.make_grouped ~name:"brdb"
      [
        bench_sha256;
        bench_sha256_small;
        bench_sign;
        bench_verify;
        bench_pow;
        bench_merkle;
        bench_insert;
        bench_pk_select;
        bench_join_aggregate;
        bench_group_query;
        bench_hot_update;
        bench_hash_join;
        bench_nl_join;
        bench_hash_agg;
        bench_sort_agg;
        bench_topk;
        bench_sort_limit;
        bench_detect 100;
        bench_detect 400;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances) in
  let estimate instance test =
    match Hashtbl.find_opt results (Measure.label instance) with
    | None -> nan
    | Some tbl -> (
        match Option.map Analyze.OLS.estimates (Hashtbl.find_opt tbl test) with
        | Some (Some [ est ]) -> est
        | _ -> nan)
  in
  Printf.printf "%-40s %12s %12s\n" "" "ns/run" "words/run";
  List.iter
    (fun test ->
      let name = Test.Elt.name test in
      Printf.printf "%-40s %12.1f %12.1f\n%!" name
        (estimate Instance.monotonic_clock name)
        (estimate minor_allocated name))
    (Test.elements tests)
