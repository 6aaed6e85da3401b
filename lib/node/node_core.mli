(** A database peer node, without networking or timing: catalog, MVCC
    engine, smart-contract runtime, block processor for both flows, the
    Ethereum-style serial baseline, and the §3.6 recovery protocol.

    The {!Peer} module wraps this with the simulated network and the
    cost model; tests drive it directly. *)

type flow =
  | Order_execute  (** §3.3: execute after ordering, previous-block snapshot *)
  | Execute_order  (** §3.4: pre-execute at client snapshot, block-aware SSI *)
  | Serial_baseline  (** §5.1: Ethereum-style one-at-a-time execution *)

type config = {
  name : string;  (** network node name, e.g. ["db-org1"] *)
  org : string;
  flow : flow;
  require_index : bool;
      (** force index-only predicate reads; always on for {!Execute_order} *)
  orgs : string list;  (** all organizations (governance quorum) *)
  atomic_commit : bool;
      (** §3.6 remark: commit the whole block as one atomic unit. Commit
          decisions are unchanged; on a crash, either the entire block is
          durable or none of it is, so recovery never sees a partially
          committed block and always takes the simple re-execute path. *)
  parallel_validation : bool;
      (** ISSUE 8 (DESIGN.md §14): commit each block wave-by-wave over its
          dependency DAG instead of strictly serially. Commit/abort
          decisions, write-set hashes and state digests are byte-identical
          to the serial path (the qcheck equivalence property); only the
          modelled validation time changes. Ignored by
          {!Serial_baseline}. *)
}

(** [config] with [atomic_commit = false] and
    [parallel_validation = false]. *)
val make_config :
  name:string ->
  org:string ->
  flow:flow ->
  ?require_index:bool ->
  ?atomic_commit:bool ->
  ?parallel_validation:bool ->
  orgs:string list ->
  unit ->
  config

type tx_status =
  | S_committed
  | S_aborted of Brdb_txn.Txn.abort_reason
  | S_rejected of string
      (** never executed: bad signature, duplicate id, … *)

val tx_status_to_string : tx_status -> string

type block_result = {
  br_height : int;
  br_statuses : (string * tx_status) list;  (** tx_id, status — block order *)
  br_write_set_hash : string;
  br_missing : int;  (** EO: transactions the block processor had to execute *)
  br_waves : int array;
      (** wave index per block position (0-based, ascending execution
          order): the levelization of the dependency DAG plus the 2-rw-hop
          scheduling closure. Computed for every flow/mode so the peer can
          model and report wave occupancy; empty after recovery case (a),
          where the interrupted schedule is unrecoverable. *)
  br_fresh : bool array;
      (** per position: the contract body executed during block processing
          (OE: every accepted transaction; EO: only the missing ones) —
          these cost [tet] in the wave-execution model *)
}

type t

val create : config -> registry:Brdb_crypto.Identity.Registry.t -> t

(** Install a tracer (default {!Brdb_obs.Trace.null}). When enabled, each
    contract run emits a per-operator row-count event; tracing never
    affects execution, read sets or commit decisions. *)
val set_trace : t -> Brdb_obs.Trace.t -> unit

(** Cumulative per-operator executor counters (rows produced / versions
    visited) summed over every contract run on this node. Purely a
    function of the processed block stream, so identical across replicas;
    the peer layer republishes them as registry metrics. *)
val exec_totals : t -> Brdb_engine.Exec.stats

val config : t -> config

val catalog : t -> Brdb_storage.Catalog.t

val manager : t -> Brdb_txn.Manager.t

val contracts : t -> Brdb_contracts.Registry.t

val block_store : t -> Brdb_ledger.Block_store.t

val identity_registry : t -> Brdb_crypto.Identity.Registry.t

(** Committed block height (0 before the first block). *)
val height : t -> int

(** Create the governance tables, seed the organizations and register the
    system contracts (§3.7). Idempotent. *)
val bootstrap : t -> unit

(** Deploy a contract directly (test/bench convenience; production
    deployments go through the governance contracts). *)
val install_contract : t -> name:string -> Brdb_contracts.Registry.body -> unit

(** EO execution phase (§3.4.1): authenticate and execute a transaction
    at its snapshot height. [Error] reasons: bad signature, duplicate id,
    snapshot above the node's current height (caller should retry after
    catching up). The transaction's outcome (including contract failure)
    is decided at commit. *)
val pre_execute : t -> Brdb_ledger.Block.tx -> (unit, string) result

(** §3.6 crash points, each a boundary between two stages of
    {!process_block}'s one path (acquire → graph/schedule → ledger step 1
    → decide/apply → critical-path log → ledger step 2 + digest
    bookkeeping), under every flow and validation mode. *)
type crash_point =
  | Crash_after_ledger_entries
      (** after ledger step 1: every transaction recorded with a NULL
          status (and, outside the serial flow, executed), none applied *)
  | Crash_mid_commit of int
      (** inside decide/apply, before the [n+1]-th commit/abort is
          applied — with wave validation possibly mid-wave. Applies are
          counted in execution order, rejected positions included; a block
          with at most [n] positions stops where
          {!Crash_before_status_step} does. *)
  | Crash_before_status_step
      (** after the critical-path log: every commit/abort applied and
          WAL'd, ledger step 2 and the digest bookkeeping missing *)

(** [verify_block t block] is [Block.verify] under this node's identity
    registry, run at most once per (node, block): a block object this node
    already verified, under a registry with no key change since, is not
    hashed or signature-checked again. Any other block — a tampered copy
    included — is checked in full. {!process_block} and the peer's block
    admission both verify through here (DESIGN.md §4). *)
val verify_block : t -> Brdb_ledger.Block.t -> bool

(** Process the next block (verification, execution, commit, ledger
    bookkeeping, write-set hash). [Error] on out-of-sequence or invalid
    blocks, before any processing. With [crash], a verified block is
    appended and processing stops at that point, leaving the node
    inconsistent until {!recover} — under [atomic_commit] with every
    commit of the block undone. The [Ok] result of a crashed run is
    meaningful only for its height; callers should discard it. *)
val process_block :
  ?crash:crash_point -> t -> Brdb_ledger.Block.t -> (block_result, string) result

(** Run a read-only query outside any blockchain transaction (the
    paper's single-statement [SELECT] / provenance path). *)
val query :
  t ->
  ?params:Brdb_storage.Value.t array ->
  string ->
  (Brdb_engine.Exec.result_set, string) result

(** [explain_analyze t ~row_cost sql] — EXPLAIN ANALYZE (DESIGN.md §10):
    execute the [SELECT] in a sandboxed read-only transaction that is
    aborted afterwards, and return the plan annotated with the actual
    rows/visited counters plus a modelled per-operator time of
    [visited * row_cost] seconds (rendered in ms). Uses a private stats
    record so the run leaves no residue in {!exec_totals}, the metrics
    registry, traces, or any committed state or hash. Non-[SELECT]
    statements are an [Error]. *)
val explain_analyze :
  t ->
  ?params:Brdb_storage.Value.t array ->
  row_cost:float ->
  string ->
  (string * Brdb_engine.Exec.stats, string) result

(** Install the simulated per-contract transaction-execution-time model
    used by the [sys.transactions] view's [tet_ms] column (the peer layer
    wires this to {!Brdb_sim.Cost_model}; defaults to 0). *)
val set_tet_model : t -> (string -> float) -> unit

(** Per-block critical-path analysis (ISSUE 7): the rw/ww dependency DAG
    of each processed block, weighted with the installed cost model and
    folded by {!Brdb_obs.Critical_path.analyze}. Pure function of (block
    stream, cost model), so entries are identical across replicas; backs
    [sys.critical_path] and the bench profiler. Replaced wholesale when
    §3.6 recovery re-executes a block. *)
type cp_entry = {
  cp_txs : int;  (** transactions in the block *)
  cp_edge_count : int;  (** dependency edges (rw + ww, deduplicated) *)
  cp_result : Brdb_obs.Critical_path.result;
}

(** [None] above the node's processed height. *)
val critical_path : t -> height:int -> cp_entry option

(** The chained state digest this node publishes in
    [sys.blocks.state_digest]: a running hash of every committed block's
    write-set hash up to [height]. Cumulative, so two diverged nodes
    disagree at every height from the first divergent block on — the
    monotonicity the {!Chaos} SQL bisection relies on. *)
val state_digest : t -> height:int -> string option

(** The write-set hash the node recorded for the block at [height]
    ([None] above the current height). The peer layer uses it to rebuild
    checkpoint records after a snapshot install (DESIGN.md §11). *)
val write_set_hash : t -> height:int -> string option

(** The Merkle leaves behind {!write_set_hash} at [height]: canonical
    ["<gid>|<op>|<table>|<values>"] entry strings in write order (ISSUE
    10 provenance proofs). [None] above the current height and for
    heights installed from a snapshot — the provenance-proof floor. *)
val write_set_entries_at : t -> height:int -> string list option

(** Corrupt the recorded write-set hash at [height], poisoning the
    published chained digest from [height] onwards (divergence-injection
    for the chaos harness and tests only). *)
val tamper_digest_for_test : t -> height:int -> unit

(** {2 Crash & recovery (§3.6)} *)

(** The §3.6 restart procedure. Returns [Some result] when a block had to
    be repaired, [None] when the node was already consistent. Case (a),
    every ledger-recorded transaction in the WAL: rebuild each position's
    status in block order from the block store plus the WAL and finish
    through {!process_block}'s own ledger-step-2/digest stage. Case (b):
    roll the block back and re-execute it. *)
val recover : t -> (block_result option, string) result

(** Per-block prune of dead versions (the §7 vacuum remark): removes
    aborted versions and, when [before] is given, versions whose deleter
    committed at or below that height. Returns versions removed. *)
val prune : t -> ?before:int -> unit -> int

(** {2 State snapshots (DESIGN.md §11)} *)

(** [export_snapshot t ~compaction] captures this node's full state at
    its current height: the storage layers via
    {!Brdb_snapshot.Snapshot.capture}, plus node-layer [extra] sections
    (per-block write-set digests, the sys.transactions record log, and
    the WAL tail recovery inspects) in the snapshot codec. Deterministic:
    two nodes with identical state produce byte-identical snapshots. *)
val export_snapshot :
  t -> compaction:Brdb_snapshot.Snapshot.compaction -> Brdb_snapshot.Snapshot.t

(** [install_snapshot t snap] replaces this node's state with the
    snapshot's. Validation first (node sections decode, the per-block
    digests chain exactly to the snapshot's claimed state digest, blocks
    verify, tables are coherent) — [Error] leaves the node untouched.
    The mutation window is guarded by the WAL install marker: a crash
    inside it is detected by {!recover}, which resets the node to a
    clean bootstrap slate so the peer layer can fetch afresh.
    [crash_after_tables] is a test hook that simulates exactly that
    crash (storage swapped, bookkeeping and guard not finalized). *)
val install_snapshot :
  ?crash_after_tables:bool -> t -> Brdb_snapshot.Snapshot.t -> (unit, string) result
