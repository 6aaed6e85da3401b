(** The benchmark's own test ([perfbench --self-check], or
    [dune build @perfbench/selfcheck]).

    For every workload and both modes it runs the benchmark twice, as
    separate processes with one seed and a one-second budget, and checks
    that:
    - both runs pass their correctness checks;
    - they print exactly the metrics BENCHMARK.json lists for the mode,
      with the same units;
    - every metric not read from the host clock is identical in the two
      runs — the simulated-clock figures, the commit fraction and every
      count or ratio of counts;
    - each workload keeps its character: [insert_oe] and [group_eo] abort
      nothing, [hot_rmw_eo] aborts at least half of what it submits. *)

(* Metrics read from the host clock or the host heap; every other metric
   must repeat exactly for one seed. *)
let host_metrics =
  [
    "setup_s";
    "heap_peak_mb";
    "host.tps";
    "client.submit_us";
    "sim.drive_s";
    "obs.trace_overhead";
    "ledger.block_verify_us";
    "ledger.block_hash_us";
    "crypto.tx_verify_us";
    "node.process_block_ms";
    "node.process_us_per_tx";
    "node.pre_execute_share";
  ]

let out_dir = "perfbench_out"

(* Run this executable once and return its parsed result line. *)
let run_once ~workload ~seed ~trace ~tag =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "selfcheck-%s-%d-%s.out" workload trace tag) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; "1"; "--trace"; string_of_int trace;
    |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin fd Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  Unix.close fd;
  if status <> Unix.WEXITED 0 then Error "exited with a non-zero status"
  else
    let ic = open_in path in
    let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
    let line = last "" in
    close_in ic;
    match Json.parse line with
    | v -> Ok v
    | exception Json.Error e -> Error ("unparsable result line: " ^ e)

let rec find_spec dir depth =
  let p = Filename.concat dir "BENCHMARK.json" in
  if Sys.file_exists p then p
  else if depth = 0 then failwith "BENCHMARK.json not found"
  else find_spec (Filename.dirname dir) (depth - 1)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spec_metrics spec section =
  List.map
    (fun m -> (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
    (Json.to_list (Json.member section spec))

let metrics result =
  match Json.member "metrics" result with
  | Json.Obj l ->
      List.map
        (fun (k, v) ->
          (k, (Json.to_float (Json.member "value" v), Json.to_string (Json.member "unit" v))))
        l
  | _ -> raise (Json.Error "metrics is not an object")

(* Problems found comparing two results of one (workload, mode). *)
let compare_runs ~workload ~expected a b =
  let ma = metrics a and mb = metrics b in
  let names l = List.sort compare (List.map (fun (n, (_, u)) -> (n, u)) l) in
  let correct r = Json.member "correct" r = Json.Bool true && Json.member "failed" r = Json.Num 0. in
  List.concat
    [
      (if correct a && correct b then [] else [ "a run failed its correctness checks" ]);
      (if names ma = List.sort compare expected && names mb = List.sort compare expected then []
       else [ "metric names or units differ from BENCHMARK.json" ]);
      List.filter_map
        (fun (n, (va, _)) ->
          match List.assoc_opt n mb with
          | Some (vb, _) when List.mem n host_metrics || va = vb -> None
          | Some (vb, _) -> Some (Printf.sprintf "%s differs: %.17g vs %.17g" n va vb)
          | None -> None)
        ma;
      (match List.assoc_opt "txn.abort_frac" ma with
      | None -> []
      | Some (f, _) ->
          let contended = String.equal workload "hot_rmw_eo" in
          if (contended && f >= 0.5) || ((not contended) && f = 0.) then []
          else [ Printf.sprintf "abort fraction %.3f is out of character" f ]);
    ]

let run ~seed =
  let spec = Json.parse (read_file (find_spec (Sys.getcwd ()) 4)) in
  let problems =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.concat_map
          (fun trace ->
            let expected = spec_metrics spec (if trace = 0 then "end_to_end" else "per_layer") in
            let go tag = run_once ~workload:w.name ~seed ~trace ~tag in
            let label = Printf.sprintf "%s --trace %d" w.name trace in
            let problems =
              match go "a", go "b" with
              | Ok a, Ok b -> compare_runs ~workload:w.name ~expected a b
              | Error e, _ | _, Error e -> [ e ]
            in
            Printf.printf "%-24s %s\n%!" label (if problems = [] then "ok" else "FAILED");
            List.map (fun p -> label ^ ": " ^ p) problems)
          [ 0; 1 ])
      Workloads.all
  in
  List.iter print_endline problems;
  if problems = [] then 0 else 1
