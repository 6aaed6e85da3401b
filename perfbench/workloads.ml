(** The benchmark's three workloads, their schema and contracts, and the
    state invariant each one must satisfy after a run.

    Every workload drives a 3-org deployment with 3 Kafka orderers on LAN
    links through an open-loop Poisson generator on the simulated clock.
    The workloads stress different layers, so an optimisation of one layer
    shows on the workload built for it and is predicted not to move the
    others:

    - [insert_oe]: no contention, version chains of length 1 — host time
      goes to signing, ordering auth, block verification and hashing;
    - [hot_rmw_eo]: read-modify-write on 10 hot rows under wave-scheduled
      validation — SSI, version chains, the wave scheduler and aborts;
    - [group_eo]: read-heavy join/GROUP BY/ORDER BY…LIMIT over tables that
      are never updated — the executor and storage reads. *)

module B = Brdb_core.Blockchain_db
module Node_core = Brdb_node.Node_core
module Value = Brdb_storage.Value
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Cost_model = Brdb_sim.Cost_model
module Rng = Brdb_sim.Rng

let n_customers = 50

let n_parts = 100

let n_orders = 400

let n_hot = 10

let seed_contract =
  Registry.Native
    (fun ctx ->
      List.iter
        (fun sql -> ignore (Api.execute ctx sql))
        [
          "CREATE TABLE kvstore (k INT PRIMARY KEY, v INT)";
          "CREATE TABLE parts (part_id INT PRIMARY KEY, price INT, grp INT)";
          "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, \
           part_id INT, qty INT)";
          "CREATE INDEX orders_customer ON orders (customer_id)";
          "CREATE TABLE summary (id INT PRIMARY KEY, customer_id INT, best INT)";
        ];
      for p = 0 to n_parts - 1 do
        ignore
          (Api.execute ctx
             (Printf.sprintf "INSERT INTO parts VALUES (%d, %d, %d)" p
                ((p mod 20) + 1) (p mod 5)))
      done;
      (* hot rows use negative keys so they never collide with the
         sequence-numbered inserts of insert_oe *)
      for k = 1 to n_hot do
        ignore
          (Api.execute ctx (Printf.sprintf "INSERT INTO kvstore VALUES (%d, 0)" (-k)))
      done;
      for o = 0 to n_orders - 1 do
        ignore
          (Api.execute ctx
             (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, %d)" o
                (o mod n_customers) (o mod n_parts) ((o mod 7) + 1)))
      done)

(* The paper's simple contract (Fig. 5a, Table 4). *)
let simple_source = "INSERT INTO kvstore VALUES ($1, $2)"

let contended_source =
  "LET cur = SELECT v FROM kvstore WHERE k = $2;\n\
   REQUIRE :cur IS NOT NULL;\n\
   UPDATE kvstore SET v = :cur + 1 WHERE k = $2"

(* The paper's complex-group contract (Fig. 7). *)
let best_query =
  "SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON o.part_id \
   = p.part_id WHERE o.customer_id = $1 GROUP BY p.grp ORDER BY t DESC LIMIT 1"

let group_source =
  "LET best = SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON \
   o.part_id = p.part_id WHERE o.customer_id = $2 GROUP BY p.grp ORDER BY t \
   DESC LIMIT 1;\n\
   INSERT INTO summary VALUES ($1, $2, COALESCE(:best, 0))"

(** What node 0's state must show after a run, given the number of
    transactions it committed. *)
type invariant =
  | Inserted_rows  (** one kvstore row per committed insert *)
  | Counter_sum  (** hot counters sum to the committed increments *)
  | Aggregates  (** one summary row per commit, each holding the right maximum *)

type t = {
  name : string;
  flow : Node_core.flow;
  contract : string;
  source : string;
  contract_class : Cost_model.contract_class;
  block_size : int;
  rate : float;  (** Poisson arrival rate, tps *)
  window : float;  (** simulated seconds of load *)
  parallel_validation : bool;
  args : Rng.t -> int -> Value.t list;
      (** arguments of the [i]-th submission, drawn from the seeded rng *)
  invariant : invariant;
}

(* Rates sit at about two thirds of each flow's measured peak so queues
   stay bounded; windows are long enough that every workload commits
   well over 1000 transactions, leaving ten samples beyond p99. *)
let all =
  [
    {
      name = "insert_oe";
      flow = Node_core.Order_execute;
      contract = "pb_simple";
      source = simple_source;
      contract_class = Cost_model.Simple;
      block_size = 100;
      rate = 1200.;
      window = 3.;
      parallel_validation = false;
      args = (fun rng i -> [ Value.Int i; Value.Int (Rng.int rng 1_000_000) ]);
      invariant = Inserted_rows;
    };
    {
      name = "hot_rmw_eo";
      flow = Node_core.Execute_order;
      contract = "pb_contended";
      source = contended_source;
      contract_class = Cost_model.Custom 0.0005;
      block_size = 50;
      rate = 500.;
      window = 12.;
      parallel_validation = true;
      args = (fun rng i -> [ Value.Int i; Value.Int (-(Rng.int rng n_hot + 1)) ]);
      invariant = Counter_sum;
    };
    {
      name = "group_eo";
      flow = Node_core.Execute_order;
      contract = "pb_group";
      source = group_source;
      contract_class = Cost_model.Complex_group;
      block_size = 50;
      rate = 1000.;
      window = 4.;
      parallel_validation = false;
      args = (fun rng i -> [ Value.Int i; Value.Int (Rng.int rng n_customers) ]);
      invariant = Aggregates;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let config w ~seed ~tracing =
  {
    (B.default_config ()) with
    B.flow = w.flow;
    ordering = Brdb_consensus.Service.Kafka;
    n_orderers = 3;
    block_size = w.block_size;
    block_timeout = 1.0;
    link = Brdb_sim.Network.lan_link;
    contract_class_of =
      (fun c -> if String.equal c w.contract then w.contract_class else Cost_model.Simple);
    forward_delay_mean = (if w.flow = Node_core.Execute_order then 0.012 else 0.);
    seed;
    tracing;
    parallel_validation = w.parallel_validation;
  }

(** Create the deployment, install the contracts and commit the seed
    block. *)
let setup w ~seed ~tracing =
  let net = B.create (config w ~seed ~tracing) in
  B.install_contract net ~name:"pb_seed" seed_contract;
  (match B.install_contract_source net ~name:w.contract w.source with
  | Ok () -> ()
  | Error e -> failwith ("contract rejected: " ^ e));
  let id = B.submit net ~user:(B.admin net "org1") ~contract:"pb_seed" ~args:[] in
  B.settle net;
  if B.status net id <> Some B.Committed then failwith "seed block did not commit";
  net

let query_int net sql =
  match B.query net sql with
  | Ok { Brdb_engine.Exec.rows = [ [| Value.Int n |] ]; _ } -> n
  | Ok { Brdb_engine.Exec.rows = [ [| Value.Null |] ]; _ } -> 0
  | Ok _ -> failwith ("unexpected result shape: " ^ sql)
  | Error e -> failwith (sql ^ ": " ^ e)

(** Check node 0's state against the transactions it committed: every
    committed insert is present, every committed read-modify-write added
    exactly one (no lost update), and every stored aggregate equals the
    query recomputed outside the contract. [Error] names the violation. *)
let check_state w net =
  let committed =
    query_int net
      (Printf.sprintf
         "SELECT COUNT(*) FROM sys.transactions WHERE contract = '%s' AND \
          decision = 'committed'"
         w.contract)
  in
  let expect what got =
    if got = committed then Ok ()
    else
      Error
        (Printf.sprintf "%s: %s = %d but node 0 committed %d" w.name what got
           committed)
  in
  match w.invariant with
  | Inserted_rows -> expect "inserted rows" (query_int net "SELECT COUNT(*) FROM kvstore WHERE k >= 0")
  | Counter_sum -> expect "sum of hot counters" (query_int net "SELECT SUM(v) FROM kvstore WHERE k < 0")
  | Aggregates -> (
      match expect "summary rows" (query_int net "SELECT COUNT(*) FROM summary") with
      | Error _ as e -> e
      | Ok () ->
          let best c =
            match B.query net ~params:[| Value.Int c |] best_query with
            | Ok { Brdb_engine.Exec.rows = [| Value.Int n |] :: _; _ } -> n
            | Ok _ -> 0
            | Error e -> failwith e
          in
          let bad =
            List.filter
              (fun c ->
                let want = best c in
                query_int net
                  (Printf.sprintf
                     "SELECT COUNT(*) FROM summary WHERE customer_id = %d AND \
                      best <> %d"
                     c want)
                > 0)
              (List.init n_customers Fun.id)
          in
          if bad = [] then Ok ()
          else
            Error
              (Printf.sprintf "%s: wrong aggregate for %d customers" w.name
                 (List.length bad)))
