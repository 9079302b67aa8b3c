#include <stdio.h>
#include <pthread.h>

/* main collects each thread's return value through pthread_join.
 * Thread i returns i * 3, so C prints "s = 18" (0 + 3 + 6 + 9).  The
 * RCCE translation turns the joins into one barrier and has nowhere to
 * get rv from: the translator must reject the call. */

void *work(void *arg)
{
    long id = (long) arg;
    return (void *) (id * 3);
}

int main(void)
{
    pthread_t th[4];
    void *rv;
    long s = 0;
    long i;
    for (i = 0; i < 4; i++)
        pthread_create(&th[i], NULL, work, (void *) i);
    for (i = 0; i < 4; i++) {
        pthread_join(th[i], &rv);
        s += (long) rv;
    }
    printf("s = %ld\n", s);
    return 0;
}
