#include <stdio.h>
#include <pthread.h>

/* Each thread gets a pointer to its own slot of a global array.  The
 * argument mentions the loop variable, so a translation would rewrite
 * it to the UE id and the thread would dereference address 0: the
 * translator must reject the call. */

int ids[4];
int out[4];

void *tf(void *arg)
{
    int id = *(int *)arg;
    out[id] = id * 10;
    return 0;
}

int main(void)
{
    pthread_t th[4];
    int i;
    for (i = 0; i < 4; i++)
    {
        ids[i] = i;
        pthread_create(&th[i], 0, tf, (void *)&ids[i]);
    }
    for (i = 0; i < 4; i++)
        pthread_join(th[i], 0);
    printf("%d\n", out[0] + out[1] + out[2] + out[3]);
    return 0;
}
