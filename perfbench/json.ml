(** A minimal JSON reader, enough for BENCHMARK.json and the benchmark's
    own result lines (no dependency outside the standard library). *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Error (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else raise (Error (Printf.sprintf "bad literal at %d" !pos))
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Error "unterminated string");
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' -> raise (Error "\\u escapes are not supported")
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Error (Printf.sprintf "bad object at %d" !pos))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Error (Printf.sprintf "bad array at %d" !pos))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> raise (Error (Printf.sprintf "bad value at %d" start)))
  in
  let v = value () in
  skip ();
  if !pos <> n then raise (Error "trailing characters");
  v

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> raise (Error ("no key " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_list = function Arr l -> l | _ -> raise (Error "not an array")

let to_string = function Str s -> s | _ -> raise (Error "not a string")

let to_float = function Num f -> f | _ -> raise (Error "not a number")
