type t = { name : string; sk : Schnorr.secret_key; pk : Schnorr.public_key }

let create name =
  let sk, pk = Schnorr.keygen ~seed:name in
  { name; sk; pk }

let name t = t.name

let public_key t = t.pk

let sign t msg = Schnorr.sign t.sk msg

module Registry = struct
  type id = t

  (* [generation] counts key changes, so a cache of checks made under this
     registry can tell when they must be redone. *)
  type t = { keys : (string, Schnorr.public_key) Hashtbl.t; mutable generation : int }

  let create () = { keys = Hashtbl.create 16; generation = 0 }

  let generation t = t.generation

  let set t ~name pk =
    Hashtbl.replace t.keys name pk;
    t.generation <- t.generation + 1

  let register_key t ~name pk =
    match Hashtbl.find_opt t.keys name with
    | Some existing when not (Int64.equal existing pk) -> Error `Conflict
    | Some _ -> Ok ()
    | None ->
        set t ~name pk;
        Ok ()

  let register t (id : id) = register_key t ~name:id.name id.pk

  let remove t name =
    Hashtbl.remove t.keys name;
    t.generation <- t.generation + 1

  let find t name = Hashtbl.find_opt t.keys name

  let mem t name = Hashtbl.mem t.keys name

  let verify t ~name msg signature =
    match find t name with
    | None -> false
    | Some pk -> Schnorr.verify pk msg signature

  let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.keys [] |> List.sort compare
end
