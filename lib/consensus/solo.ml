module Cpu = Brdb_sim.Cpu

type t = { stage : Cut_stage.t; cpu : Cpu.t; tx_cpu : float }

let handle t ~src:_ msg =
  match msg with
  | Msg.Client_tx tx ->
      Cpu.run t.cpu ~cost:t.tx_cpu (fun () ->
          if Cut_stage.apply t.stage (Msg.K_tx tx) then
            (* The only orderer: its time-to-cut needs no agreement. *)
            Cut_stage.arm t.stage (fun target ->
                ignore (Cut_stage.apply t.stage (Msg.K_ttc target))))
  | _ -> ()

let create ~net ~name ~identity ?auth ~block_size ~block_timeout ?(tx_cpu = 0.00002)
    ?(block_cpu = 0.001) ~peers () =
  let cpu = Cpu.create (Msg.Net.clock net) in
  let stage =
    Cut_stage.create ~net ~name ~identity ?auth ~block_size ~block_timeout
      ~metadata:"solo" ~cut_cpu:(Some (cpu, block_cpu)) ~peers ()
  in
  let t = { stage; cpu; tx_cpu } in
  Msg.Net.register net ~name (fun ~src msg -> handle t ~src msg);
  t

let stage t = t.stage
