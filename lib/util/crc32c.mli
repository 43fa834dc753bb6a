(** CRC-32C (Castagnoli) checksums, as used by LevelDB/RocksDB for WAL
    records and table blocks, including LevelDB's "masked" form that makes
    CRCs of CRC-bearing payloads robust.

    Two implementations compute the same CRC. On an x86-64 CPU with
    SSE4.2 a C stub runs the [crc32] instruction, 8 bytes at a time;
    anywhere else the portable OCaml slicing-by-8 loop runs. The choice
    is made once, at module init. *)

val implementation : string
(** The implementation {!sub} and {!string} run: ["sse4.2"] or
    ["portable"]. Bench output names it beside its CRC numbers. *)

val string : ?init:int -> string -> int
(** [string s] is the CRC-32C of [s] (a 32-bit value in an int).
    [init] continues a previous computation (default: fresh). *)

val sub : ?init:int -> string -> pos:int -> len:int -> int
(** CRC of the substring [s.[pos .. pos+len-1]]. Raises
    [Invalid_argument] if that is not a substring of [s]. *)

val portable_sub : ?init:int -> string -> pos:int -> len:int -> int
(** {!sub} on the portable loop, whatever {!implementation} is: tests
    check both implementations against one oracle. *)

val mask : int -> int
(** LevelDB CRC masking: rotate right 15 bits and add a constant. *)

val unmask : int -> int
(** Inverse of {!mask}. *)
