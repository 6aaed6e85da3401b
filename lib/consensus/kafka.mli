(** Kafka/ZooKeeper-style crash-fault-tolerant ordering service (§4.4).

    A simulated broker cluster assigns a total order (offsets) to
    published records and fans them out to every orderer node. Each
    orderer consumes the stream in offset order through its own
    {!Cut_stage} (size cap or time-to-cut records), so all orderers cut
    bit-identical blocks and deliver them to the peers connected to them.

    Broker capacity is modelled as a serial CPU cost per published
    record — the reason Fig. 8(b)'s Kafka curve is flat in the number of
    orderer nodes. *)

(** [create_cluster ~net ~name ~orderers ()] registers the broker
    cluster as [name] — [publish_cpu] defaults to 0.3 ms/record (≈3300
    records/s ceiling). *)
val create_cluster :
  net:Msg.Net.net ->
  name:string ->
  ?publish_cpu:float ->
  orderers:string list ->
  unit ->
  unit

type t

val create_orderer :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  cluster:string ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  ?tx_cpu:float ->
  ?block_cpu:float ->
  peers:string list ->
  unit ->
  t

val stage : t -> Cut_stage.t
