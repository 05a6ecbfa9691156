/* SHA-256 block compression (FIPS 180-4) for Sha256.

   Two kernels compress whole 64-byte blocks into the chaining state: a
   SHA-NI one (x86-64 SHA extensions) and a portable one in plain C.
   spitz_sha256_select runs CPUID once, when the OCaml module initialises,
   and points [kernel] at the SHA-NI version when the CPU has it.

   The state is the eight 32-bit chaining words stored big-endian in 32
   bytes, so after the last block it is the digest itself. Buffering and
   padding stay in OCaml; the kernels never see a partial block. */

#include <stddef.h>
#include <stdint.h>

#include <caml/fail.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
  0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
  0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
  0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
  0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
  0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void blocks_portable(unsigned char *state, const unsigned char *p,
                            size_t n)
{
  uint32_t h[8], w[64];
  for (int i = 0; i < 8; i++) h[i] = load_be32(state + 4 * i);
  for (; n > 0; n--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = hh + s1 + ch + K[i] + w[i];
      uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
  for (int i = 0; i < 8; i++) store_be32(state + 4 * i, h[i]);
}

#if defined(__x86_64__)

/* Four rounds: add the round constants to the message words, then two
   sha256rnds2 steps of two rounds each. */
#define RNDS4(msg, k)                                                   \
  do {                                                                  \
    __m128i t_ = _mm_add_epi32(                                         \
        (msg), _mm_loadu_si128((const __m128i *)(K + (k))));            \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, t_);                       \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(t_, 0x0E)); \
  } while (0)

/* Message schedule: [next] (already through sha256msg1) becomes the four
   words after [cur]; [prev] holds the four words before [cur]. */
#define SCHED(next, cur, prev)                                          \
  next = _mm_sha256msg2_epu32(                                          \
      _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur)

#define MSG1(prev, cur) prev = _mm_sha256msg1_epu32(prev, cur)

__attribute__((target("sha,sse4.1,ssse3")))
static void blocks_ni(unsigned char *state, const unsigned char *p, size_t n)
{
  /* Byte-swaps each 32-bit lane: big-endian words to native ones. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i m0, m1, m2, m3;
  __m128i dcba = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)state), bswap);
  __m128i hgfe =
      _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(state + 16)), bswap);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i abef_save = abef, cdgh_save = cdgh;
    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    RNDS4(m0, 0);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    RNDS4(m1, 4);  MSG1(m0, m1);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    RNDS4(m2, 8);  MSG1(m1, m2);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    RNDS4(m3, 12); SCHED(m0, m3, m2); MSG1(m2, m3);
    RNDS4(m0, 16); SCHED(m1, m0, m3); MSG1(m3, m0);
    RNDS4(m1, 20); SCHED(m2, m1, m0); MSG1(m0, m1);
    RNDS4(m2, 24); SCHED(m3, m2, m1); MSG1(m1, m2);
    RNDS4(m3, 28); SCHED(m0, m3, m2); MSG1(m2, m3);
    RNDS4(m0, 32); SCHED(m1, m0, m3); MSG1(m3, m0);
    RNDS4(m1, 36); SCHED(m2, m1, m0); MSG1(m0, m1);
    RNDS4(m2, 40); SCHED(m3, m2, m1); MSG1(m1, m2);
    RNDS4(m3, 44); SCHED(m0, m3, m2); MSG1(m2, m3);
    RNDS4(m0, 48); SCHED(m1, m0, m3); MSG1(m3, m0);
    RNDS4(m1, 52); SCHED(m2, m1, m0);
    RNDS4(m2, 56); SCHED(m3, m2, m1);
    RNDS4(m3, 60);
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128((__m128i *)state, _mm_shuffle_epi8(dcba, bswap));
  _mm_storeu_si128((__m128i *)(state + 16), _mm_shuffle_epi8(hgfe, bswap));
}

static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

#endif

static void (*kernel)(unsigned char *, const unsigned char *, size_t) =
    blocks_portable;

CAMLprim value spitz_sha256_select(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) {
    kernel = blocks_ni;
    return Val_true;
  }
#endif
  return Val_false;
}

/* The hot path: [@@noalloc], untagged ints, bounds checked in OCaml. */
CAMLprim value spitz_sha256_blocks(value state, value buf, intnat off,
                                   intnat n)
{
  kernel(Bytes_val(state), Bytes_val(buf) + off, (size_t)n);
  return Val_unit;
}

CAMLprim value spitz_sha256_blocks_byte(value state, value buf, value off,
                                        value n)
{
  return spitz_sha256_blocks(state, buf, Long_val(off), Long_val(n));
}

/* Each kernel on its own, for the differential test. */
CAMLprim value spitz_sha256_blocks_portable(value state, value buf, value off,
                                            value n)
{
  blocks_portable(Bytes_val(state), Bytes_val(buf) + Long_val(off),
                  (size_t)Long_val(n));
  return Val_unit;
}

CAMLprim value spitz_sha256_blocks_ni(value state, value buf, value off,
                                      value n)
{
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) {
    blocks_ni(Bytes_val(state), Bytes_val(buf) + Long_val(off),
              (size_t)Long_val(n));
    return Val_unit;
  }
#else
  (void)state; (void)buf; (void)off; (void)n;
#endif
  caml_failwith("Sha256.blocks_ni: CPU lacks the SHA extensions");
}
