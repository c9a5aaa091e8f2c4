/* hostprof: a sampling profiler for hosts with no perf and no valgrind.
 *
 * Preload it (LD_PRELOAD=.../libhostprof.so PROF_OUT=/tmp/prof ./target): a
 * SIGPROF every millisecond of CPU the process uses (the kernel rounds
 * that up to its tick) records the interrupted RIP and the chain of
 * return addresses behind it; at exit the samples and the executable
 * mappings go to $PROF_OUT.<pid>, which report.py turns into a profile,
 * with the process's CPU times and page faults (a fault lands on whichever
 * instruction touched the page, so samples alone cannot show it).
 * Without PROF_OUT the library does nothing. See README.md.
 *
 * Build: gcc -O2 -shared -fPIC -o libhostprof.so prof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "hostprof walks x86_64 Linux frames (rbp chain, ucontext gregs)"
#endif

#define MAX_FRAMES 24                 /* return addresses kept per sample */
#define MAX_SAMPLES (1u << 18)        /* 17 minutes of CPU at 4 ms a tick */
#define STACK_WINDOW (8ul << 20)      /* a frame pointer lies this close above RSP */

struct sample {
    uint32_t depth;                   /* addresses used in pc[] */
    uintptr_t pc[1 + MAX_FRAMES];     /* pc[0] = RIP, then callers outward */
};

/* Allocated by the constructor: the handler must not allocate. Anonymous
 * memory, so only the samples actually taken become resident. */
static struct sample *samples;
static volatile uint32_t nsamples;
static uint32_t dropped;
static const char *out_prefix;

/* Reads two words at `addr` without faulting if it is not mapped (a frame
 * pointer is whatever the interrupted code left in rbp). */
static int read_frame(uintptr_t addr, uintptr_t frame[2]) {
    struct iovec local = {frame, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)addr, 2 * sizeof(uintptr_t)};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    /* Threads take the signal too: claim a slot atomically. */
    uint32_t slot = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_sub(&nsamples, 1, __ATOMIC_RELAXED);
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t sp = (uintptr_t)regs[REG_RSP];
    uintptr_t fp = (uintptr_t)regs[REG_RBP];
    struct sample *s = &samples[slot];
    s->pc[0] = (uintptr_t)regs[REG_RIP];
    uint32_t depth = 1;
    /* Each frame is [saved rbp][return address]. Callers sit higher, so a
     * valid chain only climbs, and it stays on this stack: a coroutine's
     * 2 MiB stack ends the walk at its entry frame, a libc leaf that uses
     * rbp as a scratch register ends it at once. */
    uintptr_t floor = sp;
    while (depth <= MAX_FRAMES && fp >= floor && fp - sp < STACK_WINDOW && fp % 8 == 0) {
        uintptr_t frame[2];
        if (!read_frame(fp, frame) || frame[1] == 0)
            break;
        s->pc[depth++] = frame[1];
        floor = fp + 16;
        fp = frame[0];
    }
    __atomic_store_n(&s->depth, depth, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void hostprof_start(void) {
    out_prefix = getenv("PROF_OUT");
    if (!out_prefix || !*out_prefix)
        return;
    samples = mmap(NULL, (size_t)MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void hostprof_stop(void) {
    if (!samples)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out_prefix, (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    /* The executable mappings, as the kernel prints them. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, " r-xp "))
            fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    uint32_t n = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
    for (uint32_t i = 0; i < n; i++) {
        uint32_t depth = __atomic_load_n(&samples[i].depth, __ATOMIC_ACQUIRE);
        if (depth == 0)
            continue;
        fputc('S', out);
        for (uint32_t k = 0; k < depth; k++)
            fprintf(out, " %lx", (unsigned long)samples[i].pc[k]);
        fputc('\n', out);
    }
    fprintf(out, "D %u\n", dropped);
    /* Resource use of the whole process so far: user and system CPU
     * seconds, minor and major page faults. */
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        fprintf(out, "R %ld.%06ld %ld.%06ld %ld %ld\n", (long)ru.ru_utime.tv_sec,
                (long)ru.ru_utime.tv_usec, (long)ru.ru_stime.tv_sec, (long)ru.ru_stime.tv_usec,
                ru.ru_minflt, ru.ru_majflt);
    fclose(out);
}
