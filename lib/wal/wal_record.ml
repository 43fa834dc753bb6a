open Clsm_util

let header_length = 8

let encode buf payload =
  Binary.write_fixed32 buf (Crc32c.mask (Crc32c.string payload));
  Binary.write_fixed32 buf (String.length payload);
  Buffer.add_string buf payload

let decode s ~pos =
  let n = String.length s in
  if pos = n then `End
  else if pos + header_length > n then `Torn
  else
    let stored = Crc32c.unmask (Binary.get_fixed32 s ~pos) in
    let len = Binary.get_fixed32 s ~pos:(pos + 4) in
    if len < 0 || pos + header_length + len > n then `Torn
    else if Crc32c.sub s ~pos:(pos + header_length) ~len <> stored then
      `Corrupt
    else
      `Record (String.sub s (pos + header_length) len, pos + header_length + len)
