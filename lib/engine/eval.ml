open Brdb_storage
open Brdb_sql.Ast

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type binding = {
  alias : string;
  schema : Schema.t;
  values : Value.t array;
  version : Version.t option;
  provenance : bool;
}

type env = {
  bindings : binding list;
  scope_start : int;
      (* index in [bindings] where the current (innermost) query's own
         tables begin; everything before it is correlated outer context *)
  params : Value.t array;
  named : (string * Value.t) list;
  subquery : (select -> env -> Value.t array list) option;
      (* provided by the executor; runs a subquery with this env as the
         correlated outer context and returns its rows *)
  semijoin : (select -> env -> (Value.t -> Value.t option) option) option;
      (* optional hash-membership fast path for [IN (SELECT ...)], also
         provided by the executor. [get sel env] returns a probe function
         when the subquery's result can be consulted as a set; the probe
         returns [None] to demand the (error-preserving) linear fallback
         for that particular left-hand value. *)
}

let binding_of_version ~alias ~schema ~provenance (v : Version.t) =
  { alias; schema; values = v.Version.values; version = Some v; provenance }

let is_pseudo_column = function
  | "xmin" | "xmax" | "creator" | "deleter" -> true
  | _ -> false

(* Value of a provenance pseudo-column; [name] satisfies [is_pseudo_column]. *)
let pseudo_value (b : binding) name =
  match (b.version, name) with
  | None, _ ->
      (* null-extended row of an outer join *)
      Value.Null
  | Some v, "xmin" -> Value.Int v.Version.xmin
  | Some v, "xmax" -> if v.Version.xmax = 0 then Value.Null else Value.Int v.Version.xmax
  | Some v, "creator" ->
      if v.Version.creator_block = Version.unset_block then Value.Null
      else Value.Int v.Version.creator_block
  | Some v, _ ->
      if v.Version.deleter_block = Version.unset_block then Value.Null
      else Value.Int v.Version.deleter_block

(* Position of [name] in [b]'s schema, or -1. *)
let column_pos (b : binding) name =
  let cols = b.schema.Schema.columns in
  let rec loop i =
    if i >= Array.length cols then -1
    else if String.equal cols.(i).Schema.name name then i
    else loop (i + 1)
  in
  loop 0

let has_column b name =
  column_pos b name >= 0 || (b.provenance && is_pseudo_column name)

(* [name] must resolve in [b] ([has_column b name]). *)
let column_value b name =
  let i = column_pos b name in
  if i >= 0 then b.values.(i) else pseudo_value b name

(* Name resolution is scoped for correlated subqueries: the innermost
   query's own tables are consulted first; only if the name is absent
   there does resolution fall back to the outer context (innermost outer
   binding wins). Ambiguity is an error only within the current scope.

   Resolution is one walk over [bindings] that allocates nothing on
   success (the walkers are top-level so no closure is built per
   reference). Outer context precedes the current scope in the list, so
   for a qualified name the last binding with that alias is the innermost
   one of the nearest scope that has it. *)
let rec last_aliased b q name = function
  | [] ->
      if has_column b name then column_value b name
      else error "unknown column %s.%s" q name
  | b' :: rest -> last_aliased (if String.equal b'.alias q then b' else b) q name rest

let rec first_aliased q name = function
  | [] -> error "unknown table or alias %s" q
  | b :: rest ->
      if String.equal b.alias q then last_aliased b q name rest
      else first_aliased q name rest

(* Unqualified names. [outer] is the last outer-context hit so far; it is
   meaningful only when [found]. *)
let rec unqualified_outer scope_start name i found outer = function
  | bs when i >= scope_start -> unqualified_inner name found outer bs
  | [] -> if found then column_value outer name else error "unknown column %s" name
  | b :: rest ->
      if has_column b name then unqualified_outer scope_start name (i + 1) true b rest
      else unqualified_outer scope_start name (i + 1) found outer rest

(* Current scope, no hit yet. *)
and unqualified_inner name found outer = function
  | [] -> if found then column_value outer name else error "unknown column %s" name
  | b :: rest ->
      if has_column b name then unqualified_hit name b rest
      else unqualified_inner name found outer rest

(* Current scope, exactly one hit so far. *)
and unqualified_hit name hit = function
  | [] -> column_value hit name
  | b :: rest ->
      if has_column b name then error "ambiguous column %s" name
      else unqualified_hit name hit rest

let lookup_column env qualifier name =
  match (qualifier, env.bindings) with
  | Some q, bs -> first_aliased q name bs
  | None, [] -> error "unknown column %s" name
  | None, (b0 :: _ as bs) -> unqualified_outer env.scope_start name 0 false b0 bs

let has_aggregate e =
  let found = ref false in
  iter_expr (function Agg _ -> found := true | _ -> ()) e;
  !found

(* --- numeric helpers --------------------------------------------------- *)

let as_number = function
  | Value.Int i -> `I i
  | Value.Float f -> `F f
  | v -> error "expected a number, got %s" (Value.to_string v)

let arith op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> (
      match op with
      | Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div -> if y = 0 then error "division by zero" else Value.Int (x / y)
      | Mod -> if y = 0 then error "modulo by zero" else Value.Int (x mod y)
      | _ -> assert false)
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> (
      match (as_number a, as_number b, op) with
      | _, _, Mod -> error "modulo requires integers"
      | nx, ny, _ ->
          let f = function `I i -> float_of_int i | `F f -> f in
          let x = f nx and y = f ny in
          let r =
            match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> if y = 0. then error "division by zero" else x /. y
            | _ -> assert false
          in
          Value.Float r)

let v_true = Value.Bool true

let v_false = Value.Bool false

let of_bool b = if b then v_true else v_false

let compare_op op a b =
  match Value.compare_sql a b with
  | None ->
      if Value.is_null a || Value.is_null b then Value.Null
      else
        error "cannot compare %s with %s" (Value.to_string a) (Value.to_string b)
  | Some c ->
      let r =
        match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false
      in
      of_bool r

let as_bool3 = function
  | Value.Null -> None
  | Value.Bool b -> Some b
  | v -> error "expected a boolean, got %s" (Value.to_string v)

let of_bool3 = function None -> Value.Null | Some b -> of_bool b

let text_of = function
  | Value.Null -> None
  | v -> Some (Value.to_string v)

(* --- scalar functions --------------------------------------------------- *)

let call_function name args =
  match (name, args) with
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ Value.Text s ] -> Value.Int (String.length s)
  | "lower", [ Value.Null ] -> Value.Null
  | "lower", [ Value.Text s ] -> Value.Text (String.lowercase_ascii s)
  | "upper", [ Value.Null ] -> Value.Null
  | "upper", [ Value.Text s ] -> Value.Text (String.uppercase_ascii s)
  | "nullif", [ a; b ] -> if Value.equal a b then Value.Null else a
  | "greatest", (_ :: _ as args) ->
      if List.exists Value.is_null args then Value.Null
      else List.fold_left (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
             (List.hd args) args
  | "least", (_ :: _ as args) ->
      if List.exists Value.is_null args then Value.Null
      else List.fold_left (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
             (List.hd args) args
  | ("cast_text" | "to_text"), [ v ] -> (
      match text_of v with None -> Value.Null | Some s -> Value.Text s)
  | "to_int", [ v ] -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Int _ -> v
      | Value.Float f -> Value.Int (int_of_float f)
      | Value.Bool b -> Value.Int (if b then 1 else 0)
      | Value.Text s -> (
          match int_of_string_opt (String.trim s) with
          | Some i -> Value.Int i
          | None -> error "cannot convert %S to int" s))
  | "to_float", [ v ] -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Float _ -> v
      | Value.Int i -> Value.Float (float_of_int i)
      | Value.Text s -> (
          match float_of_string_opt (String.trim s) with
          | Some f -> Value.Float f
          | None -> error "cannot convert %S to float" s)
      | Value.Bool _ -> error "cannot convert bool to float")
  | ("abs" | "length" | "lower" | "upper" | "nullif"), _ ->
      error "wrong arguments for %s" name
  | _ -> error "unknown function %s" name

(* --- evaluation --------------------------------------------------------- *)

let rec eval env e =
  match e with
  | Lit l -> Value.of_lit l
  | Col (q, name) -> lookup_column env q name
  | Param n ->
      if n < 1 || n > Array.length env.params then error "parameter $%d not supplied" n
      else env.params.(n - 1)
  | Named_param name -> (
      match List.assoc_opt name env.named with
      | Some v -> v
      | None -> error "parameter :%s not supplied" name)
  | Binop (And, a, b) -> (
      (* Kleene AND with short-circuit on definite false. *)
      match as_bool3 (eval env a) with
      | Some false -> Value.Bool false
      | la -> (
          match (la, as_bool3 (eval env b)) with
          | _, Some false -> Value.Bool false
          | Some true, lb -> of_bool3 lb
          | None, _ -> Value.Null
          | Some false, _ -> assert false))
  | Binop (Or, a, b) -> (
      match as_bool3 (eval env a) with
      | Some true -> Value.Bool true
      | la -> (
          match (la, as_bool3 (eval env b)) with
          | _, Some true -> Value.Bool true
          | Some false, lb -> of_bool3 lb
          | None, _ -> Value.Null
          | Some true, _ -> assert false))
  | Binop (Concat, a, b) -> (
      match (text_of (eval env a), text_of (eval env b)) with
      | Some x, Some y -> Value.Text (x ^ y)
      | _ -> Value.Null)
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      arith op (eval env a) (eval env b)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
      compare_op op (eval env a) (eval env b)
  | Unop (Neg, a) -> (
      match eval env a with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> error "cannot negate %s" (Value.to_string v))
  | Unop (Not, a) -> of_bool3 (Option.map not (as_bool3 (eval env a)))
  | Call (name, args) -> call_function name (List.map (eval env) args)
  | Between (x, lo, hi) ->
      eval env (Binop (And, Binop (Ge, x, lo), Binop (Le, x, hi)))
  | In_list (x, items) ->
      let xv = eval env x in
      if Value.is_null xv then Value.Null
      else
        let rec loop unknown = function
          | [] -> if unknown then Value.Null else Value.Bool false
          | item :: rest -> (
              match compare_op Eq xv (eval env item) with
              | Value.Bool true -> Value.Bool true
              | Value.Null -> loop true rest
              | _ -> loop unknown rest)
        in
        loop false items
  | Is_null (a, want_null) ->
      let v = eval env a in
      of_bool (Value.is_null v = want_null)
  | Agg _ -> error "aggregate not allowed in this context"
  | Subquery sel -> (
      match run_subquery env sel with
      | [] -> Value.Null
      | [ row ] ->
          if Array.length row <> 1 then error "scalar subquery must return one column"
          else row.(0)
      | _ -> error "scalar subquery returned more than one row")
  | Exists sel -> of_bool (run_subquery env sel <> [])
  | In_select (x, sel) -> (
      let xv = eval env x in
      if Value.is_null xv then Value.Null
      else
        let fast =
          match env.semijoin with
          | None -> None
          | Some get -> (
              match get sel env with None -> None | Some probe -> probe xv)
        in
        match fast with
        | Some v -> v
        | None ->
        let rows = run_subquery env sel in
        let rec loop unknown = function
          | [] -> if unknown then Value.Null else Value.Bool false
          | (row : Value.t array) :: rest ->
              if Array.length row <> 1 then error "IN subquery must return one column"
              else (
                match compare_op Eq xv row.(0) with
                | Value.Bool true -> Value.Bool true
                | Value.Null -> loop true rest
                | _ -> loop unknown rest)
        in
        loop false rows)

and run_subquery env sel =
  match env.subquery with
  | Some run -> run sel env
  | None -> error "subqueries are not available in this context"

let eval_bool env e = as_bool3 (eval env e)

(* --- aggregates --------------------------------------------------------- *)

(* One pass over the group, no intermediate lists (except the distinct
   set). Errors keep the list-based definition's precedence: every
   argument is evaluated before a non-numeric SUM/AVG input is reported,
   and the first such input in group order is the one named. *)
let compute_agg kind arg group =
  match kind with
  | Count_star -> Value.Int (List.length group)
  | Count ->
      let arg = Option.get arg in
      Value.Int
        (List.fold_left
           (fun n env -> if Value.is_null (eval env arg) then n else n + 1)
           0 group)
  | Count_distinct ->
      let arg = Option.get arg in
      let values =
        List.fold_left
          (fun acc env -> match eval env arg with Value.Null -> acc | v -> v :: acc)
          [] group
      in
      Value.Int (List.length (List.sort_uniq Value.compare_total values))
  | Sum | Avg ->
      let arg = Option.get arg in
      let count = ref 0 and int_total = ref 0 and all_int = ref true in
      (* a flat float array, so accumulating does not box *)
      let float_total = [| 0. |] in
      let bad = ref Value.Null in
      List.iter
        (fun env ->
          match eval env arg with
          | Value.Null -> ()
          | Value.Int i ->
              incr count;
              int_total := !int_total + i;
              float_total.(0) <- float_total.(0) +. float_of_int i
          | Value.Float f ->
              incr count;
              all_int := false;
              float_total.(0) <- float_total.(0) +. f
          | v ->
              incr count;
              all_int := false;
              if Value.is_null !bad then bad := v)
        group;
      if !count = 0 then Value.Null
      else if kind = Sum && !all_int then Value.Int !int_total
      else if not (Value.is_null !bad) then
        error "cannot aggregate %s" (Value.to_string !bad)
      else if kind = Sum then Value.Float float_total.(0)
      else Value.Float (float_total.(0) /. float_of_int !count)
  | Min | Max ->
      let arg = Option.get arg in
      (* NULL inputs are skipped, so NULL doubles as "no value yet"; ties
         keep the earliest row's value *)
      List.fold_left
        (fun best env ->
          match eval env arg with
          | Value.Null -> best
          | v ->
              if Value.is_null best then v
              else
                let c = Value.compare_total v best in
                if (kind = Min && c < 0) || (kind = Max && c > 0) then v else best)
        Value.Null group

let rec grouped output group env e =
  match e with
  | Agg (kind, arg) -> compute_agg kind arg group
  | Col (None, c) -> ( match output c with Some v -> v | None -> eval env e)
  | Lit _ | Col _ | Param _ | Named_param _ -> eval env e
  | Binop (op, a, b) ->
      (* Rebuild on pre-evaluated literals so 3VL/short-circuit logic in
         [eval] is reused. *)
      let av = grouped output group env a and bv = grouped output group env b in
      eval env (Binop (op, lift av, lift bv))
  | Unop (op, a) -> eval env (Unop (op, lift (grouped output group env a)))
  | Call (name, args) -> call_function name (List.map (grouped output group env) args)
  | Between (x, lo, hi) ->
      grouped output group env (Binop (And, Binop (Ge, x, lo), Binop (Le, x, hi)))
  | In_list (x, items) ->
      eval env
        (In_list (lift (grouped output group env x),
                  List.map (fun i -> lift (grouped output group env i)) items))
  | Is_null (a, w) -> eval env (Is_null (lift (grouped output group env a), w))
  | Subquery _ | Exists _ -> eval env e
  | In_select (x, sel) -> eval env (In_select (lift (grouped output group env x), sel))

and lift v =
  match v with
  | Value.Null -> Lit L_null
  | Value.Int i -> Lit (L_int i)
  | Value.Float f -> Lit (L_float f)
  | Value.Text s -> Lit (L_text s)
  | Value.Bool b -> Lit (L_bool b)

let eval_grouped ?(output = fun _ -> None) ~group env e = grouped output group env e
