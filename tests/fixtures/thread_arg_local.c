#include <stdio.h>
#include <pthread.h>

/* A pointer to main's local array is every thread's argument.  Under
 * pthreads the four increments meet in one `local` and print 4; a
 * translated program would hand each UE its own copy of main's frame,
 * so the translator must reject the call instead of printing 1. */

pthread_mutex_t m;

void *tf(void *arg)
{
    int *p = (int *)arg;
    pthread_mutex_lock(&m);
    p[0] = p[0] + 1;
    pthread_mutex_unlock(&m);
    return 0;
}

int main(void)
{
    int local[1];
    pthread_t th[4];
    int i;
    local[0] = 0;
    pthread_mutex_init(&m, 0);
    for (i = 0; i < 4; i++)
        pthread_create(&th[i], 0, tf, (void *)local);
    for (i = 0; i < 4; i++)
        pthread_join(th[i], 0);
    printf("%d\n", local[0]);
    return 0;
}
