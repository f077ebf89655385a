(* One capped cindtool invocation, started through the capped wrapper
   (capped.c): stdout, exit status, wall time, and the child's own CPU
   time and peak RSS. *)

external now : unit -> float = "bench_now"
external self_maxrss_kb : unit -> int = "bench_self_maxrss"

(* Per-request caps.  1 GiB of address space turns the known implication
   runaway into an abort within seconds instead of exhausting the host;
   10 s of wall time bounds any other stall. *)
let address_space_cap = 1 lsl 30
let wall_cap_s = 10

type outcome = Exited of int | Signalled of int | Killed

type result = {
  outcome : outcome;
  wall_s : float;
  cpu_s : float;
  maxrss_kb : int;
  stdout : string;
}

let wrapper () = Filename.concat (Filename.dirname Sys.executable_name) Runtime_deps.capped

let run prog args =
  let out_rd, out_wr = Unix.pipe ~cloexec:true () in
  let err_rd, err_wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (wrapper () :: string_of_int address_space_cap :: string_of_int wall_cap_s :: prog :: args) in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out_wr err_wr in
  Unix.close out_wr;
  Unix.close err_wr;
  let stdout = In_channel.input_all (Unix.in_channel_of_descr out_rd) in
  let report = In_channel.input_all (Unix.in_channel_of_descr err_rd) in
  Unix.close out_rd;
  Unix.close err_rd;
  ignore (Unix.waitpid [] pid);
  Scanf.sscanf report "%s %d %f %f %d" (fun what code wall_s cpu_s maxrss_kb ->
      let outcome =
        match what with
        | "exited" -> Exited code
        | "signalled" -> Signalled code
        | "killed" -> Killed
        | _ -> failwith ("capped: " ^ report)
      in
      { outcome; wall_s; cpu_s; maxrss_kb; stdout })

let describe = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Signalled s -> Printf.sprintf "signal %d" s
  | Killed -> Printf.sprintf "killed after %d s" wall_cap_s
