type kind = Solo | Kafka | Raft | Bft

(* One record per orderer node, built once in [create]: what the
   service-wide counters read, whatever the flavour behind the node. *)
type node = {
  name : string;
  cutter : Cutter.t;
  blocks : unit -> int;  (* blocks this node cut or delivered *)
  backlog : unit -> int;  (* transactions it holds for a future block *)
  lifecycle : ((unit -> unit) * (unit -> unit)) option;
      (* crash, restart: Raft and Bft only *)
}

type t = {
  kind : kind;
  nodes : node list;
  (* How per-node auth counters add up to the service's. Kafka and Raft
     nodes each apply the whole ordered stream to their own cutter, so
     every node verifies every transaction: take the max. Only a Bft
     primary cuts, and the primary moves with the view: take the sum. *)
  combine : int -> int -> int;
  raft : Raft.t list;
  bft : Bft.t list;
}

let of_stage name stage =
  let cutter = Cut_stage.cutter stage in
  {
    name;
    cutter;
    blocks = (fun () -> Cut_stage.blocks stage);
    backlog = (fun () -> Cutter.pending cutter);
    lifecycle = None;
  }

let create ~net ~kind ~orderer_names ~identity_of ~rng ?authenticator ~block_size
    ~block_timeout ~peers_of () =
  if orderer_names = [] then invalid_arg "Service.create: need at least one orderer";
  let nodes, raft, bft =
    match kind with
    | Solo ->
        let name = List.hd orderer_names in
        let s =
          Solo.create ~net ~name ~identity:(identity_of name) ?auth:authenticator
            ~block_size ~block_timeout ~peers:(peers_of name) ()
        in
        ([ of_stage name (Solo.stage s) ], [], [])
    | Kafka ->
        let cluster = "kafka-cluster" in
        Kafka.create_cluster ~net ~name:cluster ~orderers:orderer_names ();
        let node name =
          Kafka.create_orderer ~net ~name ~identity:(identity_of name) ~cluster
            ?auth:authenticator ~block_size ~block_timeout ~peers:(peers_of name) ()
          |> Kafka.stage |> of_stage name
        in
        (List.map node orderer_names, [], [])
    | Raft ->
        let rs =
          List.map
            (fun name ->
              Raft.create ~net ~name ~names:orderer_names ~identity:(identity_of name)
                ~rng:(Brdb_sim.Rng.split rng) ?auth:authenticator ~block_size
                ~block_timeout ~peers:(peers_of name) ())
            orderer_names
        in
        let node name r =
          {
            (of_stage name (Raft.stage r)) with
            backlog = (fun () -> Raft.queued r);
            lifecycle = Some ((fun () -> Raft.crash r), fun () -> Raft.restart r);
          }
        in
        (List.map2 node orderer_names rs, rs, [])
    | Bft ->
        let bs =
          List.map
            (fun name ->
              Bft.create ~net ~name ~names:orderer_names ~identity:(identity_of name)
                ?auth:authenticator ~block_size ~block_timeout ~peers:(peers_of name) ())
            orderer_names
        in
        let node name b =
          {
            name;
            cutter = Bft.cutter b;
            blocks = (fun () -> Bft.blocks_delivered b);
            backlog = (fun () -> Bft.queued b);
            lifecycle = Some ((fun () -> Bft.crash b), fun () -> Bft.restart b);
          }
        in
        (List.map2 node orderer_names bs, [], bs)
  in
  { kind; nodes; combine = (if kind = Bft then ( + ) else max); raft; bft }

let kind t = t.kind

let orderer_names t = List.map (fun n -> n.name) t.nodes

let submit_target t i = (List.nth t.nodes (i mod List.length t.nodes)).name

let blocks_cut t = List.map (fun n -> (n.name, n.blocks ())) t.nodes

let cut_total t = List.fold_left (fun acc n -> acc + n.blocks ()) 0 t.nodes

let queued t = List.fold_left (fun acc n -> max acc (n.backlog ())) 0 t.nodes

let auth_total t f = List.fold_left (fun acc n -> t.combine acc (f n.cutter)) 0 t.nodes

let auth_verified t = auth_total t Cutter.auth_verified

let auth_rejected t = auth_total t Cutter.auth_rejected

let auth_replayed t = auth_total t Cutter.replays

let raft_nodes t = t.raft

let bft_nodes t = t.bft

let lifecycle t name =
  match List.find_opt (fun n -> String.equal n.name name) t.nodes with
  | Some { lifecycle = Some l; _ } -> Some l
  | _ -> None

let crash_orderer t name =
  match lifecycle t name with
  | Some (crash, _) ->
      crash ();
      true
  | None -> false

let restart_orderer t name =
  match lifecycle t name with
  | Some (_, restart) ->
      restart ();
      true
  | None -> false

let leader t =
  match t.kind with
  | Solo -> Some (List.hd t.nodes).name
  | Kafka -> None
  | Raft ->
      List.find_map
        (fun (n, r) ->
          if Raft.role r = Raft.Leader && not (Raft.is_crashed r) then Some n else None)
        (List.combine (orderer_names t) t.raft)
  | Bft -> (
      match t.bft with
      | [] -> None
      | b :: rest ->
          (* the primary of the highest view any live replica is in *)
          let best =
            List.fold_left
              (fun acc b' -> if Bft.view b' > Bft.view acc then b' else acc)
              b rest
          in
          Some (Bft.primary best))

let elections t =
  List.fold_left (fun acc r -> acc + Raft.elections r) 0 t.raft

let view_changes t =
  List.fold_left (fun acc b -> max acc (Bft.view_changes b)) 0 t.bft

let term t =
  List.fold_left (fun acc r -> max acc (Raft.term r)) 0 t.raft

let view t =
  List.fold_left (fun acc b -> max acc (Bft.view b)) 0 t.bft
