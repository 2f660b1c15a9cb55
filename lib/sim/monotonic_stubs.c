/* CLOCK_MONOTONIC for deadline arithmetic: gettimeofday(2) is wall
   time and steps under NTP, which can fire or suppress timeouts.  The
   OCaml Unix library shipped with this toolchain has no clock_gettime
   binding, so this is the one C stub in the tree. */

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value vmbp_monotonic_now(value unit)
{
  struct timespec ts;
#ifdef CLOCK_MONOTONIC
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
    return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec / 1e9);
#endif
  /* Fallback for platforms without a monotonic clock: wall time is
     still a clock, just not a step-free one. */
  clock_gettime(CLOCK_REALTIME, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec / 1e9);
}
