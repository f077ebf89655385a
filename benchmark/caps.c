/* A monotonic clock and this process's peak resident set, which the
   OCaml Unix library lacks. */

#include <sys/resource.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

value bench_now(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double(ts.tv_sec + ts.tv_nsec * 1e-9);
}

/* In KiB. */
value bench_self_maxrss(value unit)
{
  (void)unit;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}
