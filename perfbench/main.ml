(** perfbench — the repository's benchmark (see BENCHMARK.json).

    {v
    perfbench --workload <insert_oe|hot_rmw_eo|group_eo|all> --seed <n>
              --seconds <s> --trace <0|1>
    perfbench --self-check [--seed <n>]
    v}

    [--trace 0] reports the end-to-end metrics: it runs the seeded workload
    twice on fresh deployments (the second run must reproduce the first's
    exact figures), takes the simulated-clock figures, words allocated per
    commit and peak heap from the first, and spends the rest of [--seconds]
    sampling set-up time, reported as a median. [--trace 1] alternates
    untraced and traced repetitions for about [--seconds], replays node 0's
    chain once, reports the per-layer metrics (host throughput among them),
    and writes the benchmark's host-clock spans as a Chrome trace under
    [perfbench_out/]. [--workload all] runs both modes on every workload.
    Each repetition passes the checks of {!Measure.check} or counts as
    failed. The last line of standard output is one JSON object:
    [correct], [attempted] (transactions submitted), [failed]
    (transactions of repetitions that failed a check) and
    [metrics]. *)

module W = Workloads
module M = Measure
module B = Brdb_core.Blockchain_db
module Stat = Brdb_sim.Metrics.Stat
module Trace = Brdb_obs.Trace
module Reg = Brdb_obs.Registry

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let fail out ~txs e =
  out.failed <- out.failed + txs;
  out.errors <- e :: out.errors

(* Figures that are a pure function of (workload, seed): every repetition
   in a process must reproduce the first one exactly. *)
let exact_of (r : M.rep) =
  ( (r.submitted, r.committed, r.aborted, r.rejected, r.in_flight),
    (Stat.percentile r.latency 50., Stat.percentile r.latency 99.),
    (r.net_msgs, r.net_bytes, r.auth_verified, r.exec_rows, r.exec_visited) )

(** Run one repetition and its checks; [Some r] only if every check
    passed and the exact figures match [reference]'s. *)
let checked out w reference (r : M.rep) =
  out.attempted <- out.attempted + r.submitted;
  let verdict =
    match M.check w r with
    | exception Failure e -> Error e
    | Error e -> Error e
    | Ok () -> (
        match !reference with
        | None ->
            reference := Some (exact_of r);
            Ok ()
        | Some x when x = exact_of r -> Ok ()
        | Some _ -> Error "repetitions of one seed disagree on exact figures")
  in
  match verdict with
  | Ok () -> Some r
  | Error e ->
      fail out ~txs:r.submitted (w.W.name ^ ": " ^ e);
      None

(** [repeat ~deadline f] calls [f 0], [f 1], … while the next call is
    predicted, from the last one's duration, to end before [deadline];
    always at least once. *)
let repeat ~deadline f =
  let rec go i acc =
    let t0 = M.now () in
    let x = f i in
    let dt = M.now () -. t0 in
    if M.now () +. dt <= deadline then go (i + 1) (x :: acc) else List.rev (x :: acc)
  in
  go 0 []

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let setup_time w ~seed =
  let t0 = M.now () in
  ignore (W.setup w ~seed ~tracing:false);
  M.now () -. t0

(* Each repetition starts after a full collection, so it does not pay
   for collecting the garbage of the one before. *)
let fresh_rep w ~seed ~tracing ~tr ~index =
  Gc.full_major ();
  M.run w ~seed ~tracing ~tr ~index

(* ---- end-to-end metrics (tracing off) --------------------------------- *)

(* Host throughput swings by 15-30% between runs of a few dozen seconds on
   a shared host, more than any bound a regression gate can use, so it is
   a per-layer figure; the host cost an end-to-end bound can hold is the
   words allocated per commit, which a seed reproduces exactly. *)
let end_to_end w ~seed ~seconds out =
  let deadline = M.now () +. seconds in
  let reference = ref None in
  (* The first repetition gives every figure but set-up time; the second
     must reproduce its exact figures. *)
  let first = fresh_rep w ~seed ~tracing:false ~tr:Trace.null ~index:0 in
  let heap = heap_peak_mb () in
  let figures =
    Option.map
      (fun (r : M.rep) ->
        Printf.eprintf "%s seed %d: %d submitted, %d committed (latency samples), %.1f host tx/s\n%!"
          w.W.name seed r.submitted r.committed (float_of_int r.committed /. r.run_s);
        [
          m "sim_commit_tps" "tx/sim_s" (float_of_int r.committed /. w.W.window);
          m "sim_latency_p50_ms" "sim_ms" (Stat.percentile r.latency 50. *. 1000.);
          m "sim_latency_p99_ms" "sim_ms" (Stat.percentile r.latency 99. *. 1000.);
          m "commit_frac" "ratio" (ratio r.committed r.submitted);
          m "alloc_words_per_commit" "words/commit" (r.alloc_words /. float_of_int r.committed);
          m "heap_peak_mb" "MB" heap;
        ])
      (checked out w reference first)
  in
  ignore (checked out w reference (fresh_rep w ~seed ~tracing:false ~tr:Trace.null ~index:1));
  (* The rest of the run samples set-up, which is short and noisy. *)
  let setups = repeat ~deadline (fun _ -> setup_time w ~seed) in
  Printf.eprintf "%d set-ups\n%!" (List.length setups);
  match figures with None -> [] | Some f -> f @ [ m "setup_s" "s" (median setups) ]

(* ---- per-layer metrics (a separate traced run) ------------------------ *)

let abort_classes =
  [
    "rw-antidependency";
    "block-aware-commit";
    "lost-update";
    "stale-read";
    "phantom-read";
    "uniqueness";
    "duplicate-txid";
    "index-restriction";
    "contract-failure";
    "deploy-conflict";
    "chaos-induced";
  ]

(* Node 0's sys.aborts, by class. *)
let aborts_by_class net =
  match B.query net "SELECT class, n FROM sys.aborts" with
  | Ok rs ->
      List.filter_map
        (function
          | [| Brdb_storage.Value.Text c; Brdb_storage.Value.Int n |] -> Some (c, n)
          | _ -> None)
        rs.Brdb_engine.Exec.rows
  | Error e -> failwith ("sys.aborts: " ^ e)

let histogram net ~nodes metric =
  let reg = Brdb_obs.Obs.metrics (B.obs net) in
  let all = Stat.create () in
  List.iter
    (fun node ->
      match Reg.histogram reg ~node metric with
      | Some s -> List.iter (Stat.add all) (Stat.samples s)
      | None -> ())
    nodes;
  all

(* Layer figures of the replayed repetition: registry counters and
   histograms, node 0's sys.aborts, and the replay's own timings. *)
let layer_figures (r : M.rep) (rp : M.replay) =
  let node0 = [ "db-org1" ] in
  let p50 nodes metric = Stat.percentile (histogram r.net ~nodes metric) 50. in
  let aborts = aborts_by_class r.net in
  let orderers = List.init 3 (fun i -> Printf.sprintf "orderer-%d" (i + 1)) in
  let per_commit n = ratio n r.committed in
  let us_per n s = s /. float_of_int n *. 1e6 in
  [
    m "sim.net_msgs_per_commit" "msgs/commit" (per_commit r.net_msgs);
    m "sim.net_bytes_per_commit" "B/commit" (per_commit r.net_bytes);
    m "consensus.auth_verified_per_tx" "count/tx" (ratio r.auth_verified r.submitted);
    m "consensus.order_p50_ms" "sim_ms" (p50 orderers "phase.order_ms");
    m "ledger.block_verify_us" "us" (us_per rp.M.blocks rp.M.verify_s);
    m "ledger.block_hash_us" "us" (us_per rp.M.blocks rp.M.hash_s);
    m "crypto.tx_verify_us" "us" (us_per rp.M.txs rp.M.tx_verify_s);
    m "node.process_block_ms" "ms" (Stat.percentile rp.M.process_ms 50.);
    m "node.process_us_per_tx" "us" (us_per rp.M.txs (rp.M.pre_execute_s +. rp.M.process_s));
    m "node.pre_execute_share" "ratio"
      (rp.M.pre_execute_s /. (rp.M.pre_execute_s +. rp.M.process_s));
    m "node.alloc_words_per_tx" "words/tx" (rp.M.alloc_words /. float_of_int rp.M.txs);
    m "node.bpt_p50_ms" "sim_ms" (p50 node0 "phase.bpt_ms");
    m "node.bet_p50_ms" "sim_ms" (p50 node0 "phase.bet_ms");
    m "node.bct_p50_ms" "sim_ms" (p50 node0 "phase.bct_ms");
    m "node.tet_p50_ms" "sim_ms" (p50 node0 "phase.tet_ms");
    m "node.waves_mean" "count" (Stat.mean rp.M.waves);
    (* recorded only where validation runs in waves; 0 where it is serial *)
    m "node.occupancy_mean" "ratio" (Stat.mean (histogram r.net ~nodes:node0 "validation.occupancy"));
    m "engine.rows_per_tx" "rows/tx" (ratio r.exec_rows r.submitted);
    m "storage.visited_per_row" "ratio" (ratio r.exec_visited r.exec_rows);
    m "txn.abort_frac" "ratio" (ratio (r.aborted + r.rejected) r.submitted);
    m "obs.trace_events_per_commit" "count/commit"
      (per_commit (List.length (B.trace_events r.net)));
  ]
  @ List.map
      (fun c ->
        m ("ssi.abort." ^ c) "count"
          (float_of_int (Option.value (List.assoc_opt c aborts) ~default:0)))
      abort_classes

let trace_dir = "perfbench_out"

let write_trace w ~seed tr =
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" w.W.name seed) in
  let oc = open_out path in
  output_string oc (Brdb_obs.Export.chrome_string (Trace.events tr));
  close_out oc;
  Printf.eprintf "host-clock spans written to %s\n%!" path

(* Untraced and traced repetitions alternate so that both see the same
   machine state; the first traced repetition that passes its checks is
   replayed, and its figures are the deterministic per-layer numbers. The
   traced repetitions also run the program's own simulated-clock tracer,
   so [obs.trace_overhead] is the cost of both. *)
let per_layer w ~seed ~seconds out =
  let start = M.now () in
  let tr = Trace.create ~now:M.now () in
  let reference = ref None in
  let figures = ref None in
  let pairs =
    repeat ~deadline:(start +. seconds) (fun i ->
        let u = fresh_rep w ~seed ~tracing:false ~tr:Trace.null ~index:(2 * i) in
        let untraced =
          Option.map
            (fun (r : M.rep) -> float_of_int r.committed /. r.run_s)
            (checked out w reference u)
        in
        let t = fresh_rep w ~seed ~tracing:true ~tr ~index:((2 * i) + 1) in
        let traced =
          Option.map
            (fun (r : M.rep) ->
              (if !figures = None then
                 match M.replay w r ~tr with
                 | Ok rp -> figures := Some (layer_figures r rp)
                 | Error e | (exception Failure e) -> fail out ~txs:r.submitted (w.W.name ^ ": " ^ e));
              ( float_of_int r.committed /. r.run_s,
                r.submit_s /. float_of_int r.submitted *. 1e6,
                r.drive_s ))
            (checked out w reference t)
        in
        (untraced, traced))
  in
  write_trace w ~seed tr;
  let untraced = List.filter_map fst pairs and traced = List.filter_map snd pairs in
  match !figures with
  | None -> []
  | Some figures ->
      let traced_tps = median (List.map (fun (t, _, _) -> t) traced) in
      m "host.tps" "tx/s" (median untraced)
      :: m "client.submit_us" "us" (median (List.map (fun (_, s, _) -> s) traced))
      :: m "sim.drive_s" "s" (median (List.map (fun (_, _, d) -> d) traced))
      :: m "obs.trace_overhead" "ratio" ((median untraced /. traced_tps) -. 1.)
      :: figures

(* ---- output ----------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
       metrics)

let report out metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then fail out ~txs:0 "a metric is not a finite number";
  List.iter (fun e -> Printf.eprintf "FAILED %s\n" e) (List.rev out.errors);
  List.iter (fun m -> Printf.printf "%-34s %18.6f %s\n" m.name m.value m.unit_) metrics;
  let correct = out.errors = [] && metrics <> [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 out.attempted) out.failed
    (json_metrics (if finite then metrics else []))

let measure w ~seed ~seconds ~trace out =
  if trace then per_layer w ~seed ~seconds out else end_to_end w ~seed ~seconds out

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let self_check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME insert_oe | hot_rmw_eo | group_eo | all");
      ("--seed", Arg.Set_int seed, "N workload seed (inputs are a function of it)");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run; all runs both");
      ("--self-check", Arg.Set self_check, " run the benchmark's determinism self-check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self_check then exit (Selfcheck.run ~seed:(max !seed 0))
  else begin
    let usage e =
      prerr_endline ("perfbench: " ^ e);
      exit 2
    in
    if !seed < 0 then usage "--seed N is required";
    if !seconds < 1 then usage "--seconds S (>= 1) is required";
    if !trace <> 0 && !trace <> 1 && !workload <> "all" then usage "--trace 0|1 is required";
    let seconds = float_of_int !seconds and trace = !trace = 1 in
    let out = { attempted = 0; failed = 0; errors = [] } in
    match !workload with
    | "all" ->
        let metrics =
          List.concat_map
            (fun w ->
              List.concat_map
                (fun trace ->
                  List.map
                    (fun m -> { m with name = w.W.name ^ "/" ^ m.name })
                    (measure w ~seed:!seed ~seconds ~trace out))
                [ false; true ])
            W.all
        in
        report out metrics
    | name -> (
        match W.find name with
        | None -> usage ("unknown workload " ^ name)
        | Some w -> report out (measure w ~seed:!seed ~seconds ~trace out))
  end
