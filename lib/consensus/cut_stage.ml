module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu

type t = {
  net : Msg.Net.net;
  name : string;
  clock : Clock.t;
  cutter : Cutter.t;
  assembler : Assembler.t;
  block_timeout : float;
  cut_cpu : (Cpu.t * float) option;
  peers : string list;
  mutable blocks : int;
}

let create ~net ~name ~identity ?auth ~block_size ~block_timeout ~metadata ~cut_cpu
    ~peers () =
  {
    net;
    name;
    clock = Msg.Net.clock net;
    cutter = Cutter.create ?auth ~block_size ();
    assembler = Assembler.create ~identity ~metadata;
    block_timeout;
    cut_cpu;
    peers;
    blocks = 0;
  }

let deliver t block =
  t.blocks <- t.blocks + 1;
  let msg = Msg.Block_deliver block in
  let size_bytes = Msg.size msg in
  List.iter
    (fun peer -> ignore (Msg.Net.send t.net ~src:t.name ~dst:peer ~size_bytes msg))
    t.peers

let cut t txs =
  match t.cut_cpu with
  | None -> deliver t (Assembler.make t.assembler txs)
  | Some (cpu, cost) ->
      Cpu.run cpu ~cost (fun () -> deliver t (Assembler.make t.assembler txs))

let apply t entry =
  match entry with
  | Msg.K_tx tx -> (
      match Cutter.add t.cutter tx with
      | Cutter.Cut txs ->
          cut t txs;
          false
      | Cutter.First -> true
      | Cutter.Buffered | Cutter.Duplicate -> false)
  | Msg.K_ttc target ->
      (if target = Cutter.epoch t.cutter then
         match Cutter.cut t.cutter with Some txs -> cut t txs | None -> ());
      false

(* The cutter state is a deterministic function of the entry stream, so an
   epoch names the same batch on every node applying that stream: the
   first time-to-cut for a still-open epoch cuts it, later ones are
   stale. *)
let arm t fire =
  let target = Cutter.epoch t.cutter in
  Clock.schedule t.clock ~delay:t.block_timeout (fun () ->
      if Cutter.epoch t.cutter = target && Cutter.pending t.cutter > 0 then fire target)

let cutter t = t.cutter

let blocks t = t.blocks
