(** The block-cutting stage shared by the Solo, Kafka and Raft orderers
    (§4.4): a cutter, an assembler, the connected peers and the count of
    blocks delivered to them.

    Each orderer feeds its stage one ordered stream of {!Msg.kafka_entry}
    values — Solo from its own inbox, Kafka in broker-offset order, Raft
    in committed-log order — so every node applying the same stream cuts
    identical blocks. The flavours differ only in how a time-to-cut
    decision re-enters that stream (see {!arm}) and in whether cutting
    costs CPU. *)

type t

(** [cut_cpu] charges each cut on a CPU before the block is assembled and
    delivered; [None] cuts inline (Raft, whose message handling already
    pays for the entry). *)
val create :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  metadata:string ->
  cut_cpu:(Brdb_sim.Cpu.t * float) option ->
  peers:string list ->
  unit ->
  t

(** Apply the next entry of the ordered stream: [K_tx] buffers the
    transaction and cuts a block when the batch is full; [K_ttc epoch]
    cuts the open batch only if it is still batch [epoch]. Returns [true]
    when the entry opened a new batch — the caller then {!arm}s its
    time-to-cut timer. *)
val apply : t -> Msg.kafka_entry -> bool

(** [arm t fire] calls [fire epoch] after the block timeout if the batch
    open now is still open and non-empty. Solo's [fire] applies
    [K_ttc epoch] itself; Kafka publishes it to the broker cluster and
    Raft proposes it to its log. *)
val arm : t -> (int -> unit) -> unit

val cutter : t -> Cutter.t

(** Blocks cut and delivered so far. *)
val blocks : t -> int
