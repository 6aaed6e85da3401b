(** One repetition of a workload, its correctness checks, and the replay
    of node 0's chain that times the ledger and node layers from outside.

    Nothing here reaches inside [lib/]: host time is taken around calls to
    public functions ([Blockchain_db.submit]/[run], [Block.verify]/
    [verify_tx]/[compute_hash], [Node_core.pre_execute]/[process_block]),
    and everything else is read from counters the program already
    publishes. *)

module B = Brdb_core.Blockchain_db
module W = Workloads
module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Stat = Brdb_sim.Metrics.Stat
module Trace = Brdb_obs.Trace
module Msg = Brdb_consensus.Msg
module Service = Brdb_consensus.Service

(* ---- host clock and the benchmark's own spans ------------------------- *)

let origin = Unix.gettimeofday ()

let now () = Unix.gettimeofday () -. origin

(** Words allocated by this process so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(** [span tr ~track ~name ~id ?parent f] runs [f] and, when [tr] is
    enabled, records a host-clock span around it. *)
let span tr ~track ~name ~id ?parent f =
  if not (Trace.enabled tr) then f ()
  else begin
    let t0 = now () in
    let r = f () in
    Trace.complete tr ~node:"perfbench" ~track ~cat:track ~name ~ts:t0
      ~dur:(now () -. t0) ~span:id ?parent ();
    r
  end

(* ---- one repetition --------------------------------------------------- *)

type rep = {
  net : B.t;
  setup_s : float;  (** create + contract install + seed block *)
  run_s : float;  (** submit + drive *)
  drive_s : float;  (** host time inside [Blockchain_db.run] *)
  submit_s : float;  (** host time inside [submit] (spanned reps only) *)
  submitted : int;
  committed : int;  (** majority-committed within the window *)
  aborted : int;
  rejected : int;
  in_flight : int;
  latency : Stat.t;  (** simulated submit → majority commit, seconds *)
  alloc_words : float;  (** allocated during submit + drive *)
  exec_rows : int;  (** node 0 executor rows produced during the window *)
  exec_visited : int;  (** node 0 versions visited during the window *)
  net_msgs : int;  (** messages delivered during the window *)
  net_bytes : int;  (** bytes sent during the window *)
  auth_verified : int;  (** client signatures the orderers verified *)
}

let exec_sums core =
  let s = Node_core.exec_totals core in
  let sum l = List.fold_left (fun acc (_, _, n) -> acc + n) 0 l in
  (sum (Brdb_engine.Exec.scan_counts s), sum (Brdb_engine.Exec.visited_counts s))

(** Run [w] once on a fresh deployment. [tracing] turns on the program's
    own simulated-clock tracer; [tr] records the benchmark's host spans
    (pass {!Trace.null} for an untraced repetition). *)
let run w ~seed ~tracing ~tr ~index =
  let run_id = Printf.sprintf "run/%d" index in
  span tr ~track:"run" ~name:"run" ~id:run_id (fun () ->
      let t0 = now () in
      let net =
        span tr ~track:"run" ~name:"setup" ~id:(Printf.sprintf "setup/%d" index)
          ~parent:run_id (fun () -> W.setup w ~seed ~tracing)
      in
      let setup_s = now () -. t0 in
      let users =
        Array.of_list
          (List.map (fun org -> B.register_user net (org ^ "/bench")) [ "org1"; "org2"; "org3" ])
      in
      let clock = B.clock net in
      let submit_ts = Hashtbl.create 8192 in
      let ids = ref [] in
      let latency = Stat.create () in
      let committed = ref 0 and aborted = ref 0 and rejected = ref 0 in
      B.on_decided net (fun ~tx_id status ->
          match status with
          | B.Committed ->
              incr committed;
              Stat.add latency (Clock.now clock -. Hashtbl.find submit_ts tx_id)
          | B.Aborted _ -> incr aborted
          | B.Rejected _ -> incr rejected);
      let core0 = Peer.core (B.peer net 0) in
      let rows0, visited0 = exec_sums core0 in
      let plane () =
        ( Msg.Net.delivered (B.net net),
          Msg.Net.bytes_sent (B.net net),
          Service.auth_verified (B.service net) )
      in
      let msgs0, bytes0, auth0 = plane () in
      let arg_rng = Rng.create ~seed:(seed + 2) in
      let drive_id = Printf.sprintf "drive/%d" index in
      let submit_s = ref 0. in
      let submit i =
        let user = users.(i mod Array.length users) in
        let args = w.W.args arg_rng i in
        let call () = B.submit net ~user ~contract:w.W.contract ~args in
        let id =
          if Trace.enabled tr then begin
            let s0 = now () in
            let id =
              span tr ~track:"run" ~name:"submit"
                ~id:(Printf.sprintf "submit/%d/%d" index i)
                ~parent:drive_id call
            in
            submit_s := !submit_s +. (now () -. s0);
            id
          end
          else call ()
        in
        Hashtbl.replace submit_ts id (Clock.now clock);
        ids := id :: !ids
      in
      let a0 = alloc_words () in
      let r0 = now () in
      Brdb_sim.Workload.run ~clock ~rng:(Rng.create ~seed:(seed + 1)) ~rate:w.W.rate
        ~duration:w.W.window ~submit;
      let d0 = now () in
      span tr ~track:"run" ~name:"drive" ~id:drive_id ~parent:run_id (fun () ->
          B.run net ~seconds:w.W.window);
      let r1 = now () in
      let alloc = alloc_words () -. a0 in
      let rows1, visited1 = exec_sums core0 in
      let msgs1, bytes1, auth1 = plane () in
      let in_flight = List.length (List.filter (fun id -> B.status net id = None) !ids) in
      {
        net;
        setup_s;
        run_s = r1 -. r0;
        drive_s = r1 -. d0;
        submit_s = !submit_s;
        submitted = List.length !ids;
        committed = !committed;
        aborted = !aborted;
        rejected = !rejected;
        in_flight;
        latency;
        alloc_words = alloc;
        exec_rows = rows1 - rows0;
        exec_visited = visited1 - visited0;
        net_msgs = msgs1 - msgs0;
        net_bytes = bytes1 - bytes0;
        auth_verified = auth1 - auth0;
      })

(* ---- correctness ------------------------------------------------------ *)

(** Every check a run must pass before its numbers count: peers agree on
    the chained state digest and on every write-set hash up to their
    common height, decisions account for every submission, and node 0's
    state satisfies the workload's invariant. *)
let check w (r : rep) =
  let cores = List.map Peer.core (B.peers r.net) in
  let common = List.fold_left (fun acc c -> min acc (Node_core.height c)) max_int cores in
  let agree f =
    match List.map f cores with
    | [] -> true
    | x :: rest -> x <> None && List.for_all (( = ) x) rest
  in
  let rec heights_agree h =
    h > common
    || agree (fun c -> Node_core.write_set_hash c ~height:h) && heights_agree (h + 1)
  in
  if common < 2 then Error "peers committed no workload block"
  else if not (agree (fun c -> Node_core.state_digest c ~height:common)) then
    Error (Printf.sprintf "state digests differ at common height %d" common)
  else if not (heights_agree 1) then Error "write-set hashes differ below the common height"
  else if r.committed + r.aborted + r.rejected + r.in_flight <> r.submitted then
    Error
      (Printf.sprintf "%d committed + %d aborted + %d rejected + %d in flight <> %d submitted"
         r.committed r.aborted r.rejected r.in_flight r.submitted)
  else if r.committed = 0 then Error "nothing committed"
  else W.check_state w r.net

(* ---- replay of node 0's chain ----------------------------------------- *)

type replay = {
  blocks : int;
  txs : int;
  verify_s : float;  (** [Block.verify], summed over blocks *)
  hash_s : float;  (** [Block.compute_hash], summed over blocks *)
  tx_verify_s : float;  (** [Block.verify_tx], summed over txs *)
  pre_execute_s : float;  (** [Node_core.pre_execute], summed (EO only) *)
  process_s : float;  (** [Node_core.process_block], summed *)
  process_ms : Stat.t;  (** per block *)
  alloc_words : float;  (** allocated by pre_execute + process_block *)
  waves : Stat.t;  (** validation waves per block *)
}

(** Replay node 0's blocks into a fresh node with the same configuration
    and contracts, timing each layer's public entry points. [Error] if
    any call fails or the replayed state digest differs from node 0's. *)
let replay w (r : rep) ~tr =
  let core0 = Peer.core (B.peer r.net 0) in
  let registry = B.registry r.net in
  let height = Node_core.height core0 in
  span tr ~track:"replay" ~name:"replay" ~id:"replay" (fun () ->
      let fresh = Node_core.create (Node_core.config core0) ~registry in
      Node_core.bootstrap fresh;
      Node_core.install_contract fresh ~name:"pb_seed" W.seed_contract;
      (match Brdb_contracts.Procedural.parse w.W.source with
      | Ok p -> Node_core.install_contract fresh ~name:w.W.contract (Brdb_contracts.Registry.Procedural p)
      | Error e -> failwith e);
      let store = Node_core.block_store core0 in
      let timed f =
        let t0 = now () in
        let x = f () in
        (x, now () -. t0)
      in
      let verify_s = ref 0. and hash_s = ref 0. and tx_verify_s = ref 0. in
      let pre_s = ref 0. and process_s = ref 0. in
      let process_ms = Stat.create () and waves = Stat.create () in
      let txs = ref 0 and alloc = ref 0. in
      let eo = (Node_core.config core0).Node_core.flow = Node_core.Execute_order in
      let rec go h =
        if h > height then Ok ()
        else
          match Brdb_ledger.Block_store.get store h with
          | None -> Error (Printf.sprintf "node 0 has no block %d" h)
          | Some b -> (
              let block_id = Printf.sprintf "block/%d" h in
              let sp name f =
                span tr ~track:"replay" ~name ~id:(Printf.sprintf "%s/%d" name h)
                  ~parent:block_id f
              in
              let result =
                span tr ~track:"replay" ~name:"block" ~id:block_id ~parent:"replay"
                  (fun () ->
                    let ok, dt =
                      sp "verify" (fun () -> timed (fun () -> Block.verify registry b))
                    in
                    verify_s := !verify_s +. dt;
                    let hash, dt =
                      timed (fun () ->
                          Block.compute_hash ~height:b.Block.height ~txs:b.Block.txs
                            ~metadata:b.Block.metadata ~prev_hash:b.Block.prev_hash)
                    in
                    hash_s := !hash_s +. dt;
                    let all_signed, dt =
                      timed (fun () -> List.for_all (Block.verify_tx registry) b.Block.txs)
                    in
                    tx_verify_s := !tx_verify_s +. dt;
                    txs := !txs + List.length b.Block.txs;
                    if not (ok && all_signed && String.equal hash b.Block.hash) then
                      Error (Printf.sprintf "block %d fails verification" h)
                    else begin
                      let a0 = alloc_words () in
                      if eo then
                        sp "pre_execute" (fun () ->
                            List.iter
                              (fun tx ->
                                (* as on a live peer, a transaction whose
                                   pre-execution fails runs in process_block *)
                                let _, dt = timed (fun () -> Node_core.pre_execute fresh tx) in
                                pre_s := !pre_s +. dt)
                              b.Block.txs);
                      let res, dt =
                        sp "process" (fun () -> timed (fun () -> Node_core.process_block fresh b))
                      in
                      alloc := !alloc +. (alloc_words () -. a0);
                      process_s := !process_s +. dt;
                      Stat.add process_ms (dt *. 1000.);
                      Result.map
                        (fun (br : Node_core.block_result) ->
                          Stat.add waves
                            (float_of_int
                               (Array.fold_left (fun m x -> max m (x + 1)) 0 br.Node_core.br_waves)))
                        res
                    end)
              in
              match result with Ok () -> go (h + 1) | Error _ as e -> e)
      in
      match go 1 with
      | Error e -> Error e
      | Ok () ->
          if Node_core.state_digest fresh ~height <> Node_core.state_digest core0 ~height then
            Error "replayed state digest differs from node 0's"
          else
            Ok
              {
                blocks = height;
                txs = !txs;
                verify_s = !verify_s;
                hash_s = !hash_s;
                tx_verify_s = !tx_verify_s;
                pre_execute_s = !pre_s;
                process_s = !process_s;
                process_ms;
                alloc_words = !alloc;
                waves;
              })
