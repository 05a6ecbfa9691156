/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for Crc32.

   Slice-by-8: eight 256-entry tables let the loop fold eight input bytes
   per step with eight independent lookups, instead of one dependent lookup
   per byte. Table k maps a byte to its CRC contribution when k more zero
   bytes follow it. The words are assembled byte by byte (one load on a
   little-endian target), so the kernel is plain portable C. The tables are
   filled once by spitz_crc32_init, when the OCaml module initialises. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

static uint32_t T[8][256];

CAMLprim value spitz_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    T[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int k = 1; k < 8; k++)
      T[k][n] = (T[k - 1][n] >> 8) ^ T[0][T[k - 1][n] & 0xff];
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* The CRC [crc] (a finished value, 0 for the empty string) extended by the
   [len] bytes at [buf + off]. Unchecked: callers keep the range inside
   [buf]. */
CAMLprim intnat spitz_crc32_update(intnat crc, value buf, intnat off,
                                   intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(buf) + off;
  uint32_t c = ~(uint32_t)crc;
  for (; len >= 8; len -= 8, p += 8) {
    uint32_t a = load_le32(p) ^ c, b = load_le32(p + 4);
    c = T[7][a & 0xff] ^ T[6][(a >> 8) & 0xff] ^ T[5][(a >> 16) & 0xff]
        ^ T[4][a >> 24] ^ T[3][b & 0xff] ^ T[2][(b >> 8) & 0xff]
        ^ T[1][(b >> 16) & 0xff] ^ T[0][b >> 24];
  }
  for (; len > 0; len--, p++) c = T[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return (intnat)(~c);
}

CAMLprim value spitz_crc32_update_byte(value crc, value buf, value off,
                                       value len)
{
  return Val_long(spitz_crc32_update(Long_val(crc), buf, Long_val(off),
                                     Long_val(len)));
}
