type input = {
  n : int;
  weights : float array;
  edges : (int * int) list;
}

type result = {
  serial_s : float;
  critical_s : float;
  headroom : float;
  waves : int;
  path : int list;
}

let analyze { n; weights; edges } =
  if Array.length weights <> n then
    invalid_arg "Critical_path.analyze: weights length <> n";
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a >= b then
        invalid_arg "Critical_path.analyze: edge not (low, high) in range")
    edges;
  let serial_s = Array.fold_left ( +. ) 0. weights in
  (* Incoming adjacency; positions are already a topological order because
     every edge points low -> high (commit order within the block). *)
  let inc = Array.make (max n 1) [] in
  List.iter (fun (a, b) -> inc.(b) <- a :: inc.(b)) edges;
  let finish = Array.make (max n 1) 0. in
  let depth = Array.make (max n 1) 1 in
  let pred = Array.make (max n 1) (-1) in
  for i = 0 to n - 1 do
    let best, best_pred =
      List.fold_left
        (fun (best, bp) a -> if finish.(a) > best then (finish.(a), a) else (best, bp))
        (0., -1) inc.(i)
    in
    finish.(i) <- weights.(i) +. best;
    (* Levelization: depth is 1 + the max depth over ALL predecessors (not
       just the latest-finishing one — a shallow pred can still finish
       last, and wave membership follows edges, not finish times). *)
    List.iter
      (fun a -> if depth.(a) + 1 > depth.(i) then depth.(i) <- depth.(a) + 1)
      inc.(i);
    pred.(i) <- best_pred
  done;
  let critical_s = Array.fold_left Float.max 0. (Array.sub finish 0 (max n 0)) in
  let last = ref (-1) in
  for i = 0 to n - 1 do
    if !last < 0 || finish.(i) > finish.(!last) then last := i
  done;
  let path =
    let rec walk acc i = if i < 0 then acc else walk (i :: acc) pred.(i) in
    if n = 0 then [] else walk [] !last
  in
  let waves = if n = 0 then 0 else Array.fold_left Stdlib.max 0 (Array.sub depth 0 n) in
  let headroom = if critical_s <= 0. then 1. else serial_s /. critical_s in
  { serial_s; critical_s; headroom; waves; path }

let schedule ?(rw = []) { n; weights; edges } =
  if Array.length weights <> n then
    invalid_arg "Critical_path.schedule: weights length <> n";
  let check (a, b) =
    if a < 0 || a >= n || b < 0 || b >= n || a >= b then
      invalid_arg "Critical_path.schedule: edge not (low, high) in range"
  in
  List.iter check edges;
  List.iter check rw;
  (* Positions are a topological order (edges point low -> high), so one
     forward pass levelizes: a position's wave is 1 + the max wave over
     its in-block predecessors and over every earlier position sharing an
     rw neighbour with it, 0 with none. [reach.(m)] carries 1 + the max
     wave over [m]'s rw neighbours placed so far, so the two-hop rule costs
     O(|rw|) even when a hot row has many neighbours. *)
  let inc = Array.make (max n 1) [] in
  List.iter (fun (a, b) -> inc.(b) <- a :: inc.(b)) edges;
  let nbrs = Array.make (max n 1) [] in
  List.iter
    (fun (a, b) ->
      nbrs.(a) <- b :: nbrs.(a);
      nbrs.(b) <- a :: nbrs.(b))
    rw;
  let reach = Array.make (max n 1) 0 in
  let wave = Array.make (max n 0) 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun a -> if wave.(a) + 1 > wave.(i) then wave.(i) <- wave.(a) + 1)
      inc.(i);
    List.iter (fun m -> if reach.(m) > wave.(i) then wave.(i) <- reach.(m)) nbrs.(i);
    List.iter
      (fun m -> if wave.(i) + 1 > reach.(m) then reach.(m) <- wave.(i) + 1)
      nbrs.(i)
  done;
  wave
