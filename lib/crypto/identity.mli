(** Named signing identities and a public-key registry.

    Plays the role of the paper's certificate infrastructure: every client,
    admin, database node and orderer node owns an identity; every node holds
    a registry mapping names to public keys (the [pgCerts] analogue). *)

type t

(** [create name] derives a deterministic keypair from [name]. Names are
    conventionally ["org/user"], e.g. ["org1/alice"] or ["org2/db-node"]. *)
val create : string -> t

val name : t -> string

val public_key : t -> Schnorr.public_key

val sign : t -> string -> Schnorr.signature

module Registry : sig
  type id := t

  type t

  val create : unit -> t

  (** [register t identity] stores the identity's public key. Re-registering
      the same name with a different key is an error ([Error `Conflict]). *)
  val register : t -> id -> (unit, [ `Conflict ]) result

  val register_key : t -> name:string -> Schnorr.public_key -> (unit, [ `Conflict ]) result

  (** Unconditional upsert (user-management updates). *)
  val set : t -> name:string -> Schnorr.public_key -> unit

  val remove : t -> string -> unit

  val find : t -> string -> Schnorr.public_key option

  val mem : t -> string -> bool

  (** [verify t ~name msg signature] is false when [name] is unknown. *)
  val verify : t -> name:string -> string -> Schnorr.signature -> bool

  val names : t -> string list

  (** Bumped by every key change ({!register}, {!register_key}, {!set},
      {!remove}); a check made under one generation is stale under the
      next. *)
  val generation : t -> int
end
