/* CPU-time clocks. The benchmark times ops in CPU time, not wall time:
   on a shared host a process waits for a processor, or its virtual CPU
   is descheduled, for stretches that have nothing to do with the
   program, and wall time counts them. CPU time counts only the time the
   program ran. The OCaml Unix library reaps children with waitpid,
   which drops the child's resource usage; wait4 keeps it, and with it
   each `rml` process's CPU time and peak resident set. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* [rmlbench_cpu_ns ()]: CPU time (user + system) this process has used,
   in ns. */
value rmlbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
    caml_failwith("clock_gettime");
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* [rmlbench_wait4 pid] blocks until [pid] ends and returns
   (exit code, peak RSS in KiB, CPU time (user + system) in us). A child
   killed by signal s reports 128 + s, as a shell does. */
value rmlbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  struct rusage ru;
  int status = 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status)     ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                            : -1));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2,
              Val_long((long)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L
                       + ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
  CAMLreturn(res);
}
