/* sha256_stubs.c as a target without x86-64 compiles it: the system and
   runtime headers come in first, then the architecture macro goes, so the
   stub's own "#if defined(__x86_64__)" blocks drop out and only the
   portable kernel is left. */
#include <stddef.h>
#include <stdint.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>
#undef __x86_64__
#include "sha256_stubs.c"
