(** Single-orderer ordering service (development / baseline).

    One orderer node receives transactions, cuts blocks by size or
    timeout, signs them and delivers to every connected peer. Charged a
    configurable CPU cost per transaction and per block so saturation
    behaviour is realistic. *)

type t

val create :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  ?tx_cpu:float ->
  ?block_cpu:float ->
  peers:string list ->
  unit ->
  t

(** The cut stage: its cutter and the count of blocks delivered. *)
val stage : t -> Cut_stage.t
