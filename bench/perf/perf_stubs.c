/* Peak resident set size of the calling process, which the OCaml Unix
   library does not expose (it has no getrusage binding). */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perf_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
