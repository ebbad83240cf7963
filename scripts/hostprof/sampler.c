/*
 * Host-time sampler, loaded with LD_PRELOAD by scripts/hostprof.py.
 * Arms ITIMER_PROF, records the PC each SIGPROF interrupts and, at
 * exit, writes hostprof.<pid>.pcs in the starting directory: the
 * executable's path, then one line per sample with the PC's offset
 * from the executable's load base, or "-" for a PC outside it.
 * Nothing runs, and nothing is built, unless it is preloaded.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile sig_atomic_t taken;
static FILE *out;
static pid_t owner;

static void onProf(int sig, siginfo_t *si, void *ctx)
{
    (void)sig, (void)si;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
#if defined(__x86_64__)
    unsigned long pc = mc->gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = mc->pc;
#endif
    if (taken < MAX_SAMPLES)
        pcs[taken++] = pc;
}

static unsigned long base, lo = ~0ul, hi;
static int findExe(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size, (void)data;
    base = info->dlpi_addr; /* The first object is the executable. */
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        if (base + ph->p_vaddr < lo)
            lo = base + ph->p_vaddr;
        if (base + ph->p_vaddr + ph->p_memsz > hi)
            hi = base + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

__attribute__((constructor)) static void start(void)
{
    char path[64];
    owner = getpid();
    snprintf(path, sizeof path, "hostprof.%d.pcs", (int)owner);
    if ((out = fopen(path, "w")) == NULL)
        return;
    struct sigaction sa = {.sa_sigaction = onProf,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    /* 1 ms asked; the kernel rounds up to its tick (250 Hz on some). */
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void)
{
    if (out == NULL || getpid() != owner) /* A forked child's copy. */
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = '\0';
    fprintf(out, "%s\n", exe);
    dl_iterate_phdr(findExe, NULL);
    for (sig_atomic_t i = 0; i < taken; ++i) {
        if (pcs[i] >= lo && pcs[i] < hi)
            fprintf(out, "%lx\n", pcs[i] - base);
        else
            fputs("-\n", out);
    }
    fclose(out);
}
