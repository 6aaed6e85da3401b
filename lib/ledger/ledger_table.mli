(** Operations on the [pgledger] system table (§3.6).

    Block processing performs two atomic steps per block:
    + {!record_txs} — one row per transaction of the block, with a NULL
      status, written before execution;
    + {!record_statuses} — the commit/abort outcome of every transaction,
      written after the serial commit phase.

    Rows are written as system versions (xmin 0) stamped with the block
    height, so user contracts and provenance queries can join against
    them in plain SQL. Recovery (§3.6) inspects which of the two steps
    completed. *)

type entry = {
  e_txid : int;
  e_gid : string;
  e_user : string;
  e_query : string;
}

val record_txs :
  Brdb_storage.Catalog.t -> height:int -> time:int -> entry list -> unit

(** [record_statuses catalog ~height statuses] — [(txid, status)] pairs;
    status is e.g. ["committed"] or ["aborted: <reason>"]. *)
val record_statuses :
  Brdb_storage.Catalog.t -> height:int -> (int * string) list -> unit

(** Highest block number present in the ledger table, 0 when empty. *)
val last_recorded_block : Brdb_storage.Catalog.t -> int

(** Transactions recorded for a block with their status (None = step 2
    never ran), sorted by txid — not block order in the execute-order
    flow, where ids are assigned at pre-execution. *)
val block_txs :
  Brdb_storage.Catalog.t -> height:int -> (int * string option) list

(** Remove the rows of a block entirely (used when recovery re-executes a
    half-committed block). *)
val erase_block : Brdb_storage.Catalog.t -> height:int -> unit
