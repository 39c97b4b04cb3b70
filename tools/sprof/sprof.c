/* sprof: a SIGPROF sampling profiler for LD_PRELOAD (the container has no perf).
 * Every SPROF_HZ-th of a CPU second (default 1000 Hz) the handler records a
 * backtrace; at exit the samples and /proc/self/maps go to $SPROF_OUT. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define MAX_SAMPLES (1 << 18)
#define MAX_DEPTH 48

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int n_samples;

static void on_prof(int sig) {
    (void)sig;
    int i = n_samples;
    if (i >= MAX_SAMPLES) return;
    depth[i] = (unsigned char)backtrace(frames[i], MAX_DEPTH);
    n_samples = i + 1;
}

__attribute__((constructor)) static void sprof_start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    const char *hz_env = getenv("SPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz <= 0) hz = 1000;
    struct sigaction sa = {0};
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sprof_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SPROF_OUT");
    FILE *out = fopen(path ? path : "sprof.out", "w");
    if (!out) return;
    /* Frames 0-1 are the handler and the signal trampoline. */
    for (int i = 0; i < n_samples; i++) {
        fputs("S", out);
        for (int d = 2; d < depth[i]; d++) fprintf(out, " %p", frames[i][d]);
        fputs("\n", out);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[1024];
        while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
        fclose(maps);
    }
    fclose(out);
}
