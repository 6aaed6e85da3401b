(** Raft-based crash-fault-tolerant ordering service.

    A full Raft core — randomized election timeouts, leader election,
    log replication, majority commit — replicating the stream of
    transaction / time-to-cut entries. Every orderer applies committed
    entries in log order to its own {!Cut_stage}, as Kafka orderers apply
    broker records, so all orderers emit identical blocks to their
    connected peers.

    Listed by the paper (§3.1) as one of the pluggable CFT consensus
    algorithms. *)

type t

val create :
  net:Msg.Net.net ->
  name:string ->
  names:string list ->
  identity:Brdb_crypto.Identity.t ->
  rng:Brdb_sim.Rng.t ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  ?election_timeout:float * float ->
  ?heartbeat:float ->
  ?msg_cpu:float ->
  peers:string list ->
  unit ->
  t

type role = Follower | Candidate | Leader

val role : t -> role

val term : t -> int

val leader_hint : t -> string option

(** Applies the committed log; every node's stage sees every entry. *)
val stage : t -> Cut_stage.t

(** Transactions this node holds for a future block: its cutter backlog
    plus the submissions it buffered while leaderless (0 while crashed). *)
val queued : t -> int

(** Times this node won an election (became leader). *)
val elections : t -> int

val commit_index : t -> int

val log_length : t -> int

(** Crash the node: it stops handling messages and timers until
    {!restart}. *)
val crash : t -> unit

val restart : t -> unit

val is_crashed : t -> bool
