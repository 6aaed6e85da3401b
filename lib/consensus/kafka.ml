module Cpu = Brdb_sim.Cpu

(* --- broker cluster -------------------------------------------------- *)

type cluster = {
  c_net : Msg.Net.net;
  c_name : string;
  c_cpu : Cpu.t;
  c_publish_cpu : float;
  c_orderers : string list;
  mutable c_next_offset : int;
}

let create_cluster ~net ~name ?(publish_cpu = 0.0003) ~orderers () =
  let c =
    {
      c_net = net;
      c_name = name;
      c_cpu = Cpu.create (Msg.Net.clock net);
      c_publish_cpu = publish_cpu;
      c_orderers = orderers;
      c_next_offset = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src:_ msg ->
      match msg with
      | Msg.Kafka_publish entry ->
          Cpu.run c.c_cpu ~cost:c.c_publish_cpu (fun () ->
              let offset = c.c_next_offset in
              c.c_next_offset <- offset + 1;
              let record = Msg.Kafka_record { offset; entry } in
              List.iter
                (fun o ->
                  ignore
                    (Msg.Net.send c.c_net ~src:c.c_name ~dst:o
                       ~size_bytes:(Msg.size record) record))
                c.c_orderers)
      | _ -> ())

(* --- orderer node ------------------------------------------------------ *)

type t = {
  net : Msg.Net.net;
  name : string;
  cluster : string;
  cpu : Cpu.t;
  tx_cpu : float;
  stage : Cut_stage.t;
  (* In-order consumption: records can arrive jittered; buffer by offset. *)
  reorder : (int, Msg.kafka_entry) Hashtbl.t;
  mutable next_offset : int;
}

let publish t entry =
  ignore
    (Msg.Net.send t.net ~src:t.name ~dst:t.cluster
       ~size_bytes:(Msg.size (Msg.Kafka_publish entry))
       (Msg.Kafka_publish entry))

let rec drain t =
  match Hashtbl.find_opt t.reorder t.next_offset with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.reorder t.next_offset;
      t.next_offset <- t.next_offset + 1;
      if Cut_stage.apply t.stage entry then
        (* Time-to-cut (§4.4) goes through the broker like any record, so
           every orderer applies it at the same offset. *)
        Cut_stage.arm t.stage (fun target -> publish t (Msg.K_ttc target));
      drain t

let handle t ~src:_ msg =
  match msg with
  | Msg.Client_tx tx -> Cpu.run t.cpu ~cost:t.tx_cpu (fun () -> publish t (Msg.K_tx tx))
  | Msg.Kafka_record { offset; entry } ->
      Hashtbl.replace t.reorder offset entry;
      drain t
  | _ -> ()

let create_orderer ~net ~name ~identity ~cluster ?auth ~block_size ~block_timeout
    ?(tx_cpu = 0.00002) ?(block_cpu = 0.001) ~peers () =
  let cpu = Cpu.create (Msg.Net.clock net) in
  let t =
    {
      net;
      name;
      cluster;
      cpu;
      tx_cpu;
      stage =
        Cut_stage.create ~net ~name ~identity ?auth ~block_size ~block_timeout
          ~metadata:"kafka" ~cut_cpu:(Some (cpu, block_cpu)) ~peers ();
      reorder = Hashtbl.create 64;
      next_offset = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src msg -> handle t ~src msg);
  t

let stage t = t.stage
