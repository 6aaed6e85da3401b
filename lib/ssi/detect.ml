open Brdb_storage
module Txn = Brdb_txn.Txn

let version_values catalog table vid =
  match Catalog.find catalog table with
  | None -> None
  | Some tbl -> (
      match Table.get_version tbl vid with
      | v -> Some v.Version.values
      | exception Invalid_argument _ -> None)

let push tbl key x =
  match Hashtbl.find_opt tbl key with
  | Some xs -> Hashtbl.replace tbl key (x :: xs)
  | None -> Hashtbl.replace tbl key [ x ]

(* One pass over every transaction's writes builds two indexes, then each
   reader probes them with its own reads and predicates — the analogue of
   PostgreSQL's SIREAD locks, indexed by tuple and relation, so a conflict
   is found by lookup instead of by testing every transaction pair. *)
let compute catalog txns =
  let g = Graph.create () in
  (* (table, vid) -> txids that updated or deleted that version *)
  let claimants = Hashtbl.create 64 in
  (* table -> (txid, row values) of every version created in it; a version
     that is pruned or whose table is gone can match no predicate. *)
  let created = Hashtbl.create 8 in
  let create writer table vid =
    match version_values catalog table vid with
    | Some values -> push created table (writer, values)
    | None -> ()
  in
  List.iter
    (fun (w : Txn.t) ->
      List.iter
        (function
          | Txn.W_insert { table; vid } -> create w.Txn.txid table vid
          | Txn.W_update { table; old_vid; new_vid } ->
              push claimants (table, old_vid) w.Txn.txid;
              create w.Txn.txid table new_vid
          | Txn.W_delete { table; old_vid } -> push claimants (table, old_vid) w.Txn.txid)
        w.Txn.writes)
    txns;
  List.iter
    (fun (r : Txn.t) ->
      let reader = r.Txn.txid in
      (* The writer overwrote something the reader read. *)
      List.iter
        (fun key ->
          match Hashtbl.find_opt claimants key with
          | Some writers -> List.iter (fun writer -> Graph.add_edge g ~reader ~writer) writers
          | None -> ())
        r.Txn.reads;
      (* The writer created a row under one of the reader's predicates (the
         reader could not have seen it). *)
      List.iter
        (fun p ->
          let table = Predicate.table p in
          match Hashtbl.find_opt created table with
          | Some rows ->
              List.iter
                (fun (writer, values) ->
                  if Predicate.matches p ~table values then Graph.add_edge g ~reader ~writer)
                rows
          | None -> ())
        r.Txn.predicates)
    txns;
  g
