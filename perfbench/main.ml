(* The simulator benchmark's command line.

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
         [--out FILE] [--spans FILE]

   NAME is mpi-consolidation, fuzz-campaign, dc-serve or all. The last
   line of standard output is the JSON result; everything before it is
   the human-readable report. Nothing is written unless --out / --spans
   name a file. Exits 1 when any op failed. *)

open Perfbench

let read path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

(* Read without running git: the checkout need not be a repository. *)
let git_commit () =
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some hash -> hash
    | None ->
      Option.bind (read ".git/packed-refs") (fun packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ hash; name ] when name = ref_ -> Some hash
                 | _ -> None))
      |> Option.value ~default:"unknown")
  | Some hash -> hash

let json_list items = "[" ^ String.concat ", " items ^ "]"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let stamp ~seconds =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
    ("commit", Printf.sprintf "%S" (git_commit ()));
    ("seconds", Harness.json_num seconds) ]

let result_json (r : Harness.result) =
  let num_obj pairs = json_obj (List.map (fun (k, v) -> (k, Harness.json_num v)) pairs) in
  json_obj
    [ ("workload", Printf.sprintf "%S" r.workload.name);
      ("seed", Int64.to_string r.seed);
      ("trace", if r.traced then "1" else "0");
      ("rounds", string_of_int r.rounds);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("failures", json_list (List.map (Printf.sprintf "%S") r.failures));
      ("digest_check", Printf.sprintf "%S" r.digest_check);
      ("metrics", Harness.json_metrics (List.map (fun (k, v) -> (k, k, v)) r.metrics));
      ("notes", json_obj (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) r.notes));
      ("layer_shares", num_obj r.layer_shares) ]

let write path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let describe () =
  let metric (mt : Harness.metric) =
    json_obj
      [ ("name", Printf.sprintf "%S" mt.name); ("unit", Printf.sprintf "%S" mt.unit);
        ("better", Printf.sprintf "%S" mt.better); ("layer", Printf.sprintf "%S" mt.layer);
        ("moves", Printf.sprintf "%S" mt.moves) ]
  in
  let workload (w : Harness.workload) =
    json_obj
      [ ("name", Printf.sprintf "%S" w.name); ("op", Printf.sprintf "%S" w.op);
        ("why", Printf.sprintf "%S" w.why) ]
  in
  print_endline
    (json_obj
       [ ("workloads", json_list (List.map workload Harness.workloads));
         ("end_to_end", json_list (List.map metric Harness.end_to_end));
         ("reported", json_list (List.map metric Harness.reported));
         ("per_layer", json_list (List.map metric Harness.per_layer)) ])

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "" and spans = ref "" in
  let record = ref false in
  let names = String.concat ", " (List.map (fun (w : Harness.workload) -> w.name) Harness.workloads) in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME  " ^ names ^ " or all");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured host seconds per workload (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run: per-layer metrics");
      ("--out", Arg.Set_string out, "FILE  write the stamped result JSON to FILE");
      ("--spans", Arg.Set_string spans, "FILE  traced run: write spans as Chrome trace JSON");
      ("--record", Arg.Set record, "  print one round's digest per workload and exit");
      ("--describe", Arg.Unit (fun () -> describe (); exit 0), "  print the metric catalogue and exit") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    if !workload = "all" then Harness.workloads
    else
      match Harness.find_workload !workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "unknown workload %S (expected %s or all)\n" !workload names;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 || !seconds <= 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  if !record then begin
    List.iter
      (fun (w : Harness.workload) ->
        let r = w.run !seed in
        Printf.printf "%s %s %s\n%!" w.name
          (if w.seeded then Int64.to_string !seed else "*")
          r.Workloads.digest)
      selected;
    exit 0
  end;
  let table = Harness.load_digests "perfbench/digests.txt" in
  Printf.printf "perfbench: seed %Ld, %g s per workload, trace %d, nproc %d, OCaml %s, commit %s\n%!"
    !seed !seconds !trace (Domain.recommended_domain_count ()) Sys.ocaml_version (git_commit ());
  let results =
    List.map
      (fun (w : Harness.workload) ->
        let expected = Harness.recorded table ~workload:w.name ~seed:!seed in
        let r = Harness.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~expected in
        Harness.print_human r;
        r)
      selected
  in
  if !out <> "" then
    write !out
      (json_obj
         (stamp ~seconds:!seconds
         @ [ ("seed", Int64.to_string !seed); ("results", json_list (List.map result_json results)) ])
      ^ "\n");
  if !spans <> "" then
    List.iter
      (fun (r : Harness.result) ->
        Option.iter
          (fun sp ->
            let path = if List.length results = 1 then !spans else !spans ^ "." ^ r.workload.name in
            write path (Spans.to_chrome_json sp))
          r.spans)
      results;
  let line = Harness.result_line results in
  print_endline line;
  if List.exists (fun (r : Harness.result) -> r.failed > 0 || r.attempted = 0) results then exit 1
