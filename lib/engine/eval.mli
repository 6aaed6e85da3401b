(** Scalar and aggregate expression evaluation.

    SQL three-valued logic: [NULL] propagates through arithmetic and
    comparisons; [AND]/[OR] follow Kleene logic; [WHERE] keeps a row only
    when the predicate is definitely true. Type errors (e.g. ['a' + 1])
    raise {!Error}, which the executor converts into a statement error. *)

exception Error of string

(** One joined table's worth of row context. When [version] is present and
    the query runs in provenance mode, the pseudo-columns [xmin], [xmax],
    [creator] and [deleter] resolve against it. *)
type binding = {
  alias : string;
  schema : Brdb_storage.Schema.t;
  values : Brdb_storage.Value.t array;
  version : Brdb_storage.Version.t option;
  provenance : bool;
}

type env = {
  bindings : binding list;
  scope_start : int;
      (** index in [bindings] where the innermost query's own tables begin;
          earlier bindings are correlated outer context (consulted only
          when a name is not found in the current scope) *)
  params : Brdb_storage.Value.t array;
  named : (string * Brdb_storage.Value.t) list;  (** [:name] bindings *)
  subquery : (Brdb_sql.Ast.select -> env -> Brdb_storage.Value.t array list) option;
      (** subquery executor, injected by {!Brdb_engine.Exec}; runs the
          query with this env as correlated outer context and returns its
          rows (scalar/EXISTS/IN semantics are applied by {!eval}) *)
  semijoin :
    (Brdb_sql.Ast.select -> env -> (Brdb_storage.Value.t -> Brdb_storage.Value.t option) option)
    option;
      (** hash-membership fast path for [x IN (SELECT ...)], also injected
          by the executor. When present and [get sel env] yields a probe,
          [probe xv] answers the membership test directly ([Some] of a
          [Bool]/[Null]); it returns [None] when that [xv] needs the
          linear row walk (e.g. the subquery mixes value classes, where
          the walk's comparison-error semantics must be preserved). *)
}

val binding_of_version :
  alias:string ->
  schema:Brdb_storage.Schema.t ->
  provenance:bool ->
  Brdb_storage.Version.t ->
  binding

(** [lookup_column env qualifier name] resolves a column reference;
    raises {!Error} on unknown or ambiguous names. *)
val lookup_column : env -> string option -> string -> Brdb_storage.Value.t

(** [eval env e] — raises {!Error} if [e] contains an aggregate. *)
val eval : env -> Brdb_sql.Ast.expr -> Brdb_storage.Value.t

(** Evaluate to a 3VL boolean: [Some true], [Some false], or [None]
    (unknown). Non-boolean results raise {!Error}. *)
val eval_bool : env -> Brdb_sql.Ast.expr -> bool option

(** [eval_grouped ~group env e] evaluates an expression that may contain
    aggregates: aggregate nodes are computed over [group] (the environments
    of the group's rows); everything else is evaluated in [env]
    (a representative row, or an empty env for an empty group).
    [output name], when [Some v], gives the value of an unqualified column
    reference [name] outside aggregates (the executor passes a select's
    output aliases, so ORDER BY/HAVING reuse the item values). *)
val eval_grouped :
  ?output:(string -> Brdb_storage.Value.t option) ->
  group:env list ->
  env ->
  Brdb_sql.Ast.expr ->
  Brdb_storage.Value.t

(** Does the expression contain an aggregate node? *)
val has_aggregate : Brdb_sql.Ast.expr -> bool
