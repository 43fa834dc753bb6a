open Clsm_util
module Env = Clsm_env.Env

type t = {
  next_file_number : int;
  last_ts : int;
  wal_number : int;
  files : (int * int) list;
}

let body t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "clsm-manifest v1\n";
  Buffer.add_string buf (Printf.sprintf "next_file %d\n" t.next_file_number);
  Buffer.add_string buf (Printf.sprintf "last_ts %d\n" t.last_ts);
  Buffer.add_string buf (Printf.sprintf "wal %d\n" t.wal_number);
  List.iter
    (fun (level, number) ->
      Buffer.add_string buf (Printf.sprintf "file %d %d\n" level number))
    t.files;
  Buffer.contents buf

let save ?(env = Env.unix) ~dir t =
  let contents = body t in
  let contents =
    contents ^ Printf.sprintf "crc %08x\n" (Crc32c.string contents)
  in
  (* A failure leaves only the [.tmp] file, which recovery deletes. *)
  Env.publish env ~path:(Table_file.manifest_path ~dir) contents;
  String.length contents

let load ?(env = Env.unix) ~dir () =
  let path = Table_file.manifest_path ~dir in
  if not (env.Env.file_exists path) then None
  else begin
    let contents = env.Env.read_file path in
    let lines = String.split_on_char '\n' contents in
    let rec split_crc acc = function
      | [ crc_line; "" ] | [ crc_line ] -> (List.rev acc, crc_line)
      | line :: rest -> split_crc (line :: acc) rest
      | [] -> failwith "manifest: empty"
    in
    let body_lines, crc_line = split_crc [] lines in
    let body_str = String.concat "\n" body_lines ^ "\n" in
    (match String.split_on_char ' ' crc_line with
    | [ "crc"; hex ] ->
        if int_of_string ("0x" ^ hex) <> Crc32c.string body_str then
          failwith "manifest: checksum mismatch"
    | _ -> failwith "manifest: missing checksum");
    let next_file_number = ref 0
    and last_ts = ref 0
    and wal_number = ref 0
    and files = ref []
    and quarantined = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "clsm-manifest"; "v1" ] -> ()
        | [ "next_file"; n ] -> next_file_number := int_of_string n
        | [ "last_ts"; n ] -> last_ts := int_of_string n
        | [ "wal"; n ] -> wal_number := int_of_string n
        | [ "file"; level; number ] ->
            files := (int_of_string level, int_of_string number) :: !files
        | [ "quarantine"; number ] ->
            (* written only by stores that took a suspect table out of
               the version before verifying it *)
            quarantined := int_of_string number :: !quarantined
        | [ "" ] | [] -> ()
        | _ -> failwith ("manifest: bad line: " ^ line))
      body_lines;
    Some
      ( {
          next_file_number = !next_file_number;
          last_ts = !last_ts;
          wal_number = !wal_number;
          files = List.rev !files;
        },
        List.rev !quarantined )
  end
