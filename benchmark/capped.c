/* capped AS_BYTES WALL_SECONDS PROG ARGS...

   Runs PROG under an address-space cap and a wall-clock cap, with stdin
   and stderr on /dev/null and stdout inherited, then prints on stderr
   one line: "<status> <code> <wall_s> <cpu_s> <maxrss_kb>", where status
   is exited, signalled or killed.

   The benchmark starts every cindtool request through this small program
   rather than forking itself: a forked child inherits its parent's
   resident-set high-water mark, so cindtool's peak RSS would read as the
   benchmark's whenever the benchmark is the larger process. */

#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static pid_t child;
static volatile sig_atomic_t killed;

static void on_alarm(int sig)
{
  (void)sig;
  killed = 1;
  kill(child, SIGKILL);
}

static double now(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

int main(int argc, char **argv)
{
  if (argc < 4) {
    fprintf(stderr, "usage: capped AS_BYTES WALL_SECONDS PROG ARGS...\n");
    return 2;
  }
  rlim_t as = strtoull(argv[1], NULL, 10);
  unsigned wall = (unsigned)strtoul(argv[2], NULL, 10);
  struct sigaction sa = { 0 };
  sa.sa_handler = on_alarm;
  sigaction(SIGALRM, &sa, NULL);
  double t0 = now();
  child = fork();
  if (child < 0) {
    perror("fork");
    return 2;
  }
  if (child == 0) {
    struct rlimit rl = { as, as };
    int null = open("/dev/null", O_RDWR);
    if (setrlimit(RLIMIT_AS, &rl) != 0 || null < 0 || dup2(null, 0) < 0 || dup2(null, 2) < 0)
      _exit(127);
    execv(argv[3], argv + 3);
    _exit(127);
  }
  alarm(wall);
  int status;
  struct rusage ru;
  while (wait4(child, &status, 0, &ru) < 0)
    ;
  double wall_s = now() - t0;
  double cpu = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec
               + ru.ru_stime.tv_usec * 1e-6;
  const char *what = killed ? "killed" : WIFSIGNALED(status) ? "signalled" : "exited";
  int code = WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status);
  fprintf(stderr, "%s %d %.9f %.6f %ld\n", what, code, wall_s, cpu, ru.ru_maxrss);
  return 0;
}
