/* CRC-32C on the SSE4.2 crc32 instruction. [Crc32c] calls the update
   only when [clsm_crc32c_hw_available] said yes at module init; the
   OCaml side has already bounds-checked [pos] and [len]. [crc] is the
   running, already inverted register, as in the portable loop. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define CLSM_CRC32C_HW 1

__attribute__((target("sse4.2")))
static uint32_t crc32c_hw(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  uint64_t w;
  for (; len >= 8; p += 8, len -= 8) {
    memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
  }
  crc = (uint32_t)c;
  for (; len > 0; p++, len--) crc = __builtin_ia32_crc32qi(crc, *p);
  return crc;
}
#endif

value clsm_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef CLSM_CRC32C_HW
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("sse4.2"));
#else
  return Val_false;
#endif
}

intnat clsm_crc32c_hw_update(intnat crc, value s, intnat pos, intnat len)
{
#ifdef CLSM_CRC32C_HW
  return crc32c_hw((uint32_t)crc, (const unsigned char *)String_val(s) + pos,
                   (size_t)len);
#else
  (void)s; (void)pos; (void)len;
  return crc; /* unreachable: never selected without the instruction */
#endif
}

value clsm_crc32c_hw_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(clsm_crc32c_hw_update(Long_val(crc), s, Long_val(pos),
                                        Long_val(len)));
}
