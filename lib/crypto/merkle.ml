(* Domain separation: a leaf hashes ["\x00" ^ x], an internal node hashes
   the {!Sha256.digest_concat} framing of [["\x01"; l; r]]. Both are
   streamed into the context instead of building those strings and lists. *)
let leaf_hash x =
  let ctx = Sha256.init () in
  Sha256.feed ctx "\x00";
  Sha256.feed ctx x;
  Sha256.finalize ctx

let node_hash l r =
  let ctx = Sha256.init () in
  Sha256.feed_part ctx "\x01";
  Sha256.feed_part ctx l;
  Sha256.feed_part ctx r;
  Sha256.finalize ctx

let empty_root = Sha256.digest "brdb-merkle-empty"

let leaf_array leaves = Array.map leaf_hash (Array.of_list leaves)

(* Combine the first [n] nodes of [a] pairwise into its first [(n + 1) / 2]
   slots and return that count. An odd last node is promoted unchanged
   (Bitcoin-style duplication would allow two different leaf multisets
   with the same root). *)
let level a n =
  for i = 0 to (n / 2) - 1 do
    a.(i) <- node_hash a.(2 * i) a.((2 * i) + 1)
  done;
  if n land 1 = 1 then a.(n / 2) <- a.(n - 1);
  (n + 1) / 2

let root leaves =
  let a = leaf_array leaves in
  let rec fold n = if n = 0 then empty_root else if n = 1 then a.(0) else fold (level a n) in
  fold (Array.length a)

type step = Left of string | Right of string

type proof = step list

let prove leaves i =
  let a = leaf_array leaves in
  let n = Array.length a in
  if i < 0 || i >= n then invalid_arg "Merkle.prove: index out of range";
  let rec build n i acc =
    if n <= 1 then List.rev acc
    else
      let acc =
        if i mod 2 = 0 then if i + 1 < n then Right a.(i + 1) :: acc else acc
        else Left a.(i - 1) :: acc
      in
      (* A node with no sibling is promoted, keeping its index meaningful. *)
      build (level a n) (i / 2) acc
  in
  build n i []

(* Canonical text form: one 'L'/'R' tag plus the hex sibling digest per
   step, root-ward order preserved. Hex keeps proofs printable for the
   CLI and JSON receipts without a second framing layer. *)
let proof_to_string proof =
  String.concat ""
    (List.map
       (function
         | Left l -> "L" ^ Brdb_util.Hex.encode l
         | Right r -> "R" ^ Brdb_util.Hex.encode r)
       proof)

let proof_of_string s =
  let step_len = 1 + 64 in
  let n = String.length s in
  if n mod step_len <> 0 then None
  else
    let rec parse i acc =
      if i = n then Some (List.rev acc)
      else
        let tag = s.[i] in
        match Brdb_util.Hex.decode (String.sub s (i + 1) 64) with
        | None -> None
        | Some digest -> (
            match tag with
            | 'L' -> parse (i + step_len) (Left digest :: acc)
            | 'R' -> parse (i + step_len) (Right digest :: acc)
            | _ -> None)
    in
    parse 0 []

let apply ~leaf proof =
  List.fold_left
    (fun h step ->
      match step with Left l -> node_hash l h | Right r -> node_hash h r)
    (leaf_hash leaf) proof

let check ~root:expected ~leaf proof = String.equal (apply ~leaf proof) expected
